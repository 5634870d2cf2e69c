package resource

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{CPU: "cpu", Net: "net", Disk: "disk", Mem: "mem"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
		if !k.Valid() {
			t.Errorf("%v.Valid() = false", k)
		}
	}
	if Kind(99).Valid() {
		t.Error("Kind(99).Valid() = true")
	}
}

func TestBytesString(t *testing.T) {
	cases := map[Bytes]string{
		512:     "512B",
		2 * KB:  "2.00KB",
		3 * MB:  "3.00MB",
		10 * GB: "10.00GB",
		2 * TB:  "2.00TB",
	}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(b), got, want)
		}
	}
}

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3, 4}
	o := Vector{10, 20, 30, 40}
	if got := v.Add(o); got != (Vector{11, 22, 33, 44}) {
		t.Errorf("Add = %v", got)
	}
	if got := o.Sub(v); got != (Vector{9, 18, 27, 36}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vector{2, 4, 6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Max(Vector{0, 5, 0, 5}); got != (Vector{1, 5, 3, 5}) {
		t.Errorf("Max = %v", got)
	}
	if !(Vector{}).IsZero() {
		t.Error("zero vector not IsZero")
	}
	if v.IsZero() {
		t.Error("nonzero vector IsZero")
	}
	if got := v.Set(Net, 99).Get(Net); got != 99 {
		t.Errorf("Set/Get = %v", got)
	}
}

func TestVectorAlgebraProperties(t *testing.T) {
	commutative := func(a, b Vector) bool { return a.Add(b) == b.Add(a) }
	if err := quick.Check(commutative, nil); err != nil {
		t.Errorf("Add not commutative: %v", err)
	}
	// Exact round-tripping does not hold in floating point when |a+b| is
	// much larger than |a| (absorption), so compare with a relative bound.
	addSubRoundTrip := func(a, b Vector) bool {
		if hasNonFinite(a) || hasNonFinite(b) || hasNonFinite(a.Add(b)) {
			return true
		}
		got := a.Add(b).Sub(b)
		for i := range got {
			scale := math.Max(math.Abs(a[i]), math.Abs(b[i]))
			if math.Abs(got[i]-a[i]) > 1e-9*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(addSubRoundTrip, nil); err != nil {
		t.Errorf("Add/Sub round trip: %v", err)
	}
}

func hasNonFinite(v Vector) bool {
	for _, x := range v {
		if x != x || x > 1e308 || x < -1e308 {
			return true
		}
	}
	return false
}
