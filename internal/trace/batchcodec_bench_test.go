package trace

import (
	"math/rand"
	"testing"
)

// BenchmarkBatchCodec measures the columnar batch codec on a 64-trace
// drain-shaped batch, for the three hot operations: encode (pod side),
// decode (hive side: zero-copy view indexing), and consume (reading every
// trace's branch column, the tree-merge access pattern).
func BenchmarkBatchCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	batch := make([]*Trace, 64)
	for i := range batch {
		tr := randomTrace(rng, "prog-bench")
		tr.PodID = "pod-bench"
		batch[i] = tr
	}
	columnar, err := EncodeBatch("prog-bench", batch)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("encoded size: %d bytes", len(columnar))

	b.Run("encode-columnar", func(b *testing.B) {
		b.ReportAllocs()
		var dst []byte
		for i := 0; i < b.N; i++ {
			dst, err = AppendBatch(dst[:0], "prog-bench", batch)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-columnar-view", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := DecodeBatch(columnar)
			if err != nil {
				b.Fatal(err)
			}
			v.Release()
		}
	})
	b.Run("consume-columnar-view", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := DecodeBatch(columnar)
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < v.Len(); k++ {
				for range v.Branches(k) {
				}
			}
			v.Release()
		}
	})
}
