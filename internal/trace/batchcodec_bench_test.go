package trace

import (
	"math/rand"
	"testing"
)

// BenchmarkBatchCodec compares the per-trace v2 codec against the columnar
// batch codec on the same 64-trace drain-shaped batch, for the three hot
// operations: encode (pod side), decode (hive side — full materialization
// for v2, zero-copy view indexing for columnar), and consume (reading every
// trace's branch column, the tree-merge access pattern).
func BenchmarkBatchCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	batch := make([]*Trace, 64)
	for i := range batch {
		tr := randomTrace(rng, "prog-bench")
		tr.PodID = "pod-bench"
		batch[i] = tr
	}
	var perTrace [][]byte
	for _, tr := range batch {
		perTrace = append(perTrace, Encode(tr))
	}
	columnar, err := EncodeBatch("prog-bench", batch)
	if err != nil {
		b.Fatal(err)
	}
	total := 0
	for _, e := range perTrace {
		total += len(e)
	}
	b.Logf("encoded size: v2 %d bytes, columnar %d bytes (%.2fx)",
		total, len(columnar), float64(len(columnar))/float64(total))

	b.Run("encode-v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, tr := range batch {
				Encode(tr)
			}
		}
	})
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
	b.Run("decode-v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, e := range perTrace {
				if _, err := Decode(e); err != nil {
					b.Fatal(err)
				}
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
	b.Run("consume-v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, e := range perTrace {
				tr, err := Decode(e)
				if err != nil {
					b.Fatal(err)
				}
				for range tr.Branches {
				}
			}
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
