// Package rowcodec is the row encoding of the distributed data plane: the
// bytes inside a contribution blob. It knows a closed set of row types, each
// registered once per process with a Codec, and writes a run of same-typed
// rows as one type name, one count and the rows' values back to back, so
// type information costs a few bytes per contribution instead of a
// descriptor per row and per cell.
//
//	blob  := run*                      (no bytes = no rows)
//	run   := name count value{count}   (count >= 1)
//	name  := string                    (the Codec's Name)
//	count := uvarint
//
//	int, int64  zigzag varint
//	float64     its 8 bits, little-endian (NaN payloads and -0 survive)
//	string      uvarint length, bytes
//	bool        one byte, 0 or 1
//	[]T         uvarint 0 for nil, else len+1, then the elements
//	cell        one kind byte (nil, false, true, int, int64, float64,
//	            string), then that kind's value
//
// A struct is its fields in order. Every value occupies at least one byte,
// which is what lets the decoder cap any claimed count by the bytes that
// remain before it allocates. Decoding is input validation: blobs arrive
// from peers and from disk.
package rowcodec

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// Row is one record (localrt.Row).
type Row = any

// Codec encodes and decodes the values of one static type. Codecs compose:
// SliceOf, and the constructors packages export for their generic types
// (dataset.PairCodec), build a codec from element codecs and derive its
// name from theirs. Enc reports an unencodable value through Writer.Fail;
// Dec reports malformed input through the Reader it reads from and returns
// the zero value.
type Codec[T any] struct {
	// Name identifies the type on the wire; every process of a cluster must
	// register the same name for the same type.
	Name string
	Enc  func(w *Writer, v T)
	Dec  func(r *Reader) T
}

// Writer accumulates one blob.
type Writer struct {
	buf []byte
	err error
}

func (w *Writer) Byte(b byte)      { w.buf = append(w.buf, b) }
func (w *Writer) Uvarint(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }
func (w *Writer) Int(x int64)      { w.buf = binary.AppendVarint(w.buf, x) }
func (w *Writer) Float64(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
		return
	}
	w.Byte(0)
}

func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Fail records the first reason the blob cannot be encoded.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Reader walks one blob. The first malformed read is remembered, moves the
// reader to the end and makes every later read return zero, so decoders
// need no error plumbing and loops bounded by Count terminate at once.
type Reader struct {
	b   []byte
	s   string // one copy of b, made at the first String; strings alias it
	off int
	err error
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("rowcodec: "+format, args...)
	}
	r.off = len(r.b)
}

func (r *Reader) Byte() byte {
	if r.off >= len(r.b) {
		r.fail("truncated blob")
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return x
}

func (r *Reader) Int() int64 {
	x, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return x
}

func (r *Reader) Float64() float64 {
	if len(r.b)-r.off < 8 {
		r.fail("truncated blob")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return f
}

func (r *Reader) Bool() bool {
	switch b := r.Byte(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bad bool byte %d", b)
		return false
	}
}

// Count reads a count of values (or bytes) still to come and rejects one the
// rest of the blob cannot hold, before anything is allocated for it.
func (r *Reader) Count() int { return r.bounded(r.Uvarint()) }

func (r *Reader) bounded(n uint64) int {
	if n > uint64(len(r.b)-r.off) {
		r.fail("count %d exceeds the %d bytes that remain", n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

// String returns a substring of the reader's one copy of the blob.
func (r *Reader) String() string {
	n := r.Count()
	if n == 0 {
		return ""
	}
	if r.s == "" {
		r.s = string(r.b)
	}
	s := r.s[r.off : r.off+n]
	r.off += n
	return s
}

// Scalar codecs.
var (
	Int = Codec[int]{
		Name: "int",
		Enc:  func(w *Writer, v int) { w.Int(int64(v)) },
		Dec:  decInt,
	}
	Float64 = Codec[float64]{Name: "float64", Enc: (*Writer).Float64, Dec: (*Reader).Float64}
	String  = Codec[string]{Name: "string", Enc: (*Writer).String, Dec: (*Reader).String}
)

func decInt(r *Reader) int {
	x := r.Int()
	if int64(int(x)) != x {
		r.fail("int %d overflows this platform's int", x)
		return 0
	}
	return int(x)
}

// Cell kinds.
const (
	cellNil byte = iota
	cellFalse
	cellTrue
	cellInt
	cellInt64
	cellFloat64
	cellString
)

// Cell is the codec of a dynamically typed scalar (a SQL cell): nil, bool,
// int, int64, float64 or string, decoded to the same dynamic type. Any
// other type fails the encode.
var Cell = Codec[any]{Name: "cell", Enc: encCell, Dec: decCell}

func encCell(w *Writer, v any) {
	switch x := v.(type) {
	case nil:
		w.Byte(cellNil)
	case bool:
		if x {
			w.Byte(cellTrue)
		} else {
			w.Byte(cellFalse)
		}
	case int:
		w.Byte(cellInt)
		w.Int(int64(x))
	case int64:
		w.Byte(cellInt64)
		w.Int(x)
	case float64:
		w.Byte(cellFloat64)
		w.Float64(x)
	case string:
		w.Byte(cellString)
		w.String(x)
	default:
		w.Fail(fmt.Errorf("rowcodec: unregistered cell type %T", v))
	}
}

func decCell(r *Reader) any {
	switch k := r.Byte(); k {
	case cellNil:
		return nil
	case cellFalse:
		return false
	case cellTrue:
		return true
	case cellInt:
		return decInt(r)
	case cellInt64:
		return r.Int()
	case cellFloat64:
		return r.Float64()
	case cellString:
		return r.String()
	default:
		r.fail("unknown cell kind %d", k)
		return nil
	}
}

// SliceOf is the codec of []T. A nil slice and an empty one stay distinct.
func SliceOf[T any](c Codec[T]) Codec[[]T] {
	return Codec[[]T]{
		Name: "[]" + c.Name,
		Enc: func(w *Writer, vs []T) {
			if vs == nil {
				w.Uvarint(0)
				return
			}
			w.Uvarint(uint64(len(vs)) + 1)
			for _, v := range vs {
				c.Enc(w, v)
			}
		},
		Dec: func(r *Reader) []T {
			n := r.Uvarint()
			if n == 0 {
				return nil
			}
			vs := make([]T, r.bounded(n-1))
			for i := range vs {
				vs[i] = c.Dec(r)
			}
			return vs
		},
	}
}

// rowType is a registered Codec with its static type erased.
type rowType struct {
	name string
	// run counts the leading rows whose dynamic type is this type.
	run func(rows []Row) int
	enc func(w *Writer, rows []Row)
	dec func(r *Reader, dst []Row)
}

var (
	mu     sync.RWMutex
	byName = make(map[string]*rowType)
	byType = make(map[reflect.Type]*rowType)
)

func typeOf(row Row) *rowType {
	mu.RLock()
	defer mu.RUnlock()
	return byType[reflect.TypeOf(row)]
}

func typeNamed(name []byte) *rowType {
	mu.RLock()
	defer mu.RUnlock()
	return byName[string(name)]
}

// Register makes T a row type: rows whose dynamic type is exactly T can be
// encoded and decode back to T. Registrations happen at start-up, in every
// process alike; registering a name or a type twice, or an interface type,
// panics: it is a programming error, as a duplicate workload name is.
func Register[T any](c Codec[T]) {
	t := reflect.TypeFor[T]()
	if t.Kind() == reflect.Interface {
		panic(fmt.Sprintf("rowcodec: %q registers interface type %v; rows are matched by dynamic type", c.Name, t))
	}
	rt := &rowType{
		name: c.Name,
		run: func(rows []Row) int {
			n := 0
			for n < len(rows) {
				if _, ok := rows[n].(T); !ok {
					break
				}
				n++
			}
			return n
		},
		enc: func(w *Writer, rows []Row) {
			for _, row := range rows {
				c.Enc(w, row.(T))
			}
		},
		dec: func(r *Reader, dst []Row) {
			for i := 0; i < len(dst) && r.err == nil; i++ {
				dst[i] = c.Dec(r)
			}
		},
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := byName[c.Name]; dup {
		panic(fmt.Sprintf("rowcodec: duplicate registration of name %q", c.Name))
	}
	if prev, dup := byType[t]; dup {
		panic(fmt.Sprintf("rowcodec: type %v registered as %q and as %q", t, prev.name, c.Name))
	}
	byName[c.Name] = rt
	byType[t] = rt
}

func init() {
	Register(Int)
	Register(Float64)
	Register(String)
}

// scratch pools encode buffers: a blob is built in a pooled buffer and
// copied out at its exact size, so an encode allocates its result once
// however large it grows.
var scratch = sync.Pool{New: func() any { return new(Writer) }}

// Encode serializes rows. No rows encode to no bytes. A row whose dynamic
// type is not registered (a nil row included), or a cell outside Cell's
// set, is an error.
func Encode(rows []Row) ([]byte, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	w := scratch.Get().(*Writer)
	defer func() {
		w.buf, w.err = w.buf[:0], nil
		scratch.Put(w)
	}()
	for len(rows) > 0 {
		rt := typeOf(rows[0])
		if rt == nil {
			return nil, fmt.Errorf("rowcodec: unregistered row type %T", rows[0])
		}
		n := rt.run(rows)
		w.String(rt.name)
		w.Uvarint(uint64(n))
		rt.enc(w, rows[:n])
		if w.err != nil {
			return nil, w.err
		}
		rows = rows[n:]
	}
	return append([]byte(nil), w.buf...), nil
}

// Decode reverses Encode. It retains no reference to b: decoded strings
// alias a private copy. Truncated or trailing bytes, unknown names and
// kinds, and counts the blob cannot hold are errors.
func Decode(b []byte) ([]Row, error) {
	r := Reader{b: b}
	var rows []Row
	for r.off < len(b) {
		n := r.Count()
		name := b[r.off : r.off+n]
		r.off += n
		rt := typeNamed(name)
		if rt == nil && r.err == nil {
			r.fail("unknown row type %q", name)
		}
		count := r.Count()
		if count == 0 && r.err == nil {
			r.fail("empty run of %q", name)
		}
		if r.err != nil {
			return nil, r.err
		}
		if rows == nil {
			rows = make([]Row, count)
		} else {
			rows = append(rows, make([]Row, count)...)
		}
		rt.dec(&r, rows[len(rows)-count:])
		if r.err != nil {
			return nil, r.err
		}
	}
	return rows, nil
}
