package journal

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkJournalAppendParallel is the durable-ingest yardstick: many
// goroutines appending to one program's journal, with and without fsync.
// The leading appender coalesces every append that queued behind the
// previous group into a single write+fsync, so the per-op cost approaches
// fsync/batch (one fsync is ~100–200µs on ext4 against a sub-µs buffered
// write).
func BenchmarkJournalAppendParallel(b *testing.B) {
	variants := []struct {
		name string
		opts Options
	}{
		{"group-fsync", Options{Fsync: true}},
		{"group-nosync", Options{}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			s, err := Open(b.TempDir(), v.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			payload := benchPayload(8)
			b.SetParallelism(16)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				op := &Op{Kind: OpBatchColumnar, Session: "bench-session", Seq: 1, Raw: payload}
				for pb.Next() {
					if err := s.Append("bench-program", op); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkJournalAppend measures the write-ahead append hot path at a
// realistic op size: an 8-trace batch of ~200-byte encoded traces, the
// shape a pod drain produces.
func BenchmarkJournalAppend(b *testing.B) {
	for _, traces := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("traces=%d", traces), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			op := &Op{Kind: OpBatchColumnar, Session: "bench-session", Seq: 1, Raw: benchPayload(traces)}
			b.SetBytes(int64(len(op.Raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Seq = uint64(i + 1)
				if err := s.Append("bench-program", op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournalAppendColdFleet models a fleet of many mostly-cold
// programs trickling durable appends concurrently: every op lands on a
// different program's journal, so per-record coalescing within one program
// is rare, nearly every appender leads a group of one, and the cost is the
// fsync traffic across files: distinct programs' syncs overlap because each
// runs on its own appender's goroutine.
func BenchmarkJournalAppendColdFleet(b *testing.B) {
	for _, programs := range []int{64, 512} {
		b.Run(fmt.Sprintf("programs=%d", programs), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{Fsync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			payload := benchPayload(1)
			var next atomic.Int64
			b.SetParallelism(16)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				op := &Op{Kind: OpBatchColumnar, Session: "bench-session", Seq: 1, Raw: payload}
				for pb.Next() {
					id := fmt.Sprintf("bench-program-%d", next.Add(1)%int64(programs))
					if err := s.Append(id, op); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// benchPayload stands in for the batch bytes of traces encoded traces of
// about 200 bytes each: the journal carries them without parsing.
func benchPayload(traces int) []byte {
	payload := make([]byte, 200*traces)
	for i := range payload {
		payload[i] = byte(i)
	}
	return payload
}
