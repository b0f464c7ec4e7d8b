package journal

import (
	"testing"

	"repro/internal/race"
)

// TestAllocsAppend guards the write-ahead append hot path, the one every
// acknowledged batch pays, through the receipt-minting Commit the hive calls:
// the pendingAppend and its channel are pooled, the pending queue is
// double-buffered, the op is encoded straight into the program's reused
// scratch and framed into the reused write buffer, and the receipt is
// returned by value. A lone appender leads its own group of one, so nothing
// is left to allocate.
func TestAllocsAppend(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, 200)
	op := &Op{Kind: OpBatchColumnar, Session: "alloc-session", Seq: 1, Raw: payload}
	// Warm: open the file, grow the scratch buffers.
	if _, err := s.Commit("alloc-program", op); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		op.Seq++
		r, err := s.Commit("alloc-program", op)
		if err != nil || r.Must(OpBatchColumnar) != op {
			t.Fatalf("commit: receipt for %v, err %v", r.Op(), err)
		}
	})
	if avg > 0 {
		t.Fatalf("serial journal append costs %.1f allocs; want 0", avg)
	}
}

// TestAllocsEncodeOpInto guards the op encoder.
func TestAllocsEncodeOpInto(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	op := &Op{Kind: OpBatchColumnar, Session: "alloc-session", Seq: 9, Raw: make([]byte, 800)}
	var scratch, frame []byte
	scratch = appendOp(scratch[:0], op)
	frame = appendRecord(frame[:0], scratch)
	avg := testing.AllocsPerRun(200, func() {
		scratch = appendOp(scratch[:0], op)
		frame = appendRecord(frame[:0], scratch)
	})
	if avg > 0 {
		t.Fatalf("op encode+frame costs %.1f allocs; want 0", avg)
	}
}
