package dataset

import "ursa/internal/rowcodec"

// Row codecs of this package's generic row types, built from the codecs of
// their type arguments. A workload whose plan ships one of these types
// between processes registers the instantiation it uses, in every process:
//
//	rowcodec.Register(dataset.PairCodec(rowcodec.String, rowcodec.Int))

// PairCodec is the codec of Pair[K, V].
func PairCodec[K comparable, V any](k rowcodec.Codec[K], v rowcodec.Codec[V]) rowcodec.Codec[Pair[K, V]] {
	return rowcodec.Codec[Pair[K, V]]{
		Name: "pair<" + k.Name + "," + v.Name + ">",
		Enc: func(w *rowcodec.Writer, p Pair[K, V]) {
			k.Enc(w, p.Key)
			v.Enc(w, p.Val)
		},
		Dec: func(r *rowcodec.Reader) Pair[K, V] {
			return Pair[K, V]{Key: k.Dec(r), Val: v.Dec(r)}
		},
	}
}

// CoGroupedCodec is the codec of CoGrouped[K, A, B]. An absent side (nil,
// as CoGroup leaves it for a key only the other side has) stays distinct
// from an empty one.
func CoGroupedCodec[K comparable, A, B any](k rowcodec.Codec[K], a rowcodec.Codec[A], b rowcodec.Codec[B]) rowcodec.Codec[CoGrouped[K, A, B]] {
	as, bs := rowcodec.SliceOf(a), rowcodec.SliceOf(b)
	return rowcodec.Codec[CoGrouped[K, A, B]]{
		Name: "cogroup<" + k.Name + "," + a.Name + "," + b.Name + ">",
		Enc: func(w *rowcodec.Writer, g CoGrouped[K, A, B]) {
			k.Enc(w, g.Key)
			as.Enc(w, g.Left)
			bs.Enc(w, g.Right)
		},
		Dec: func(r *rowcodec.Reader) CoGrouped[K, A, B] {
			return CoGrouped[K, A, B]{Key: k.Dec(r), Left: as.Dec(r), Right: bs.Dec(r)}
		},
	}
}
