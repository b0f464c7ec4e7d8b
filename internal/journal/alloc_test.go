package journal

import (
	"fmt"
	"runtime"
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

// TestAllocsDecodeSegment guards a segment's state decode on a table of 1536
// sessions, some with marks ahead: the strings share one allocation and every
// list and map is sized once from its count, so the decode costs a handful
// of allocations whatever the table's size, not one or more per session.
func TestAllocsDecodeSegment(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	snap := sampleSnapshot()
	snap.Sessions = make(map[string]uint64, 1536)
	snap.SessionsAhead = make(map[string][]uint64)
	for i := 0; i < 1536; i++ {
		id := fmt.Sprintf("pod-%04d/session-%08x", i, i*2654435761)
		snap.Sessions[id] = uint64(i) * 37
		if i%64 == 0 {
			snap.SessionsAhead[id] = []uint64{uint64(i)*37 + 2, uint64(i)*37 + 5}
		}
	}
	seg := encodeSnapshot(snap)
	avg := testing.AllocsPerRun(50, func() {
		got, err := decodeSnapshot(seg, "alloc")
		if err != nil || len(got.Sessions) != 1536 {
			t.Fatalf("decode: %d sessions, err %v", len(got.Sessions), err)
		}
	})
	if avg > 32 {
		t.Fatalf("decoding a segment of 1536 sessions costs %.1f allocs; want at most 32", avg)
	}
}

// TestAllocsReplay guards the journal read of recovery: a warm Replay reads
// the journal into the buffer the last one used, so what it allocates is the
// ops it decodes — a bound per record — and no buffer the size of the file.
func TestAllocsReplay(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	// One P: the pool hands a Replay the buffer the last one put back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const records = 200
	payload := make([]byte, 2000)
	for seq := uint64(1); seq <= records; seq++ {
		if _, err := s.Commit("alloc-program", &Op{Kind: OpBatchColumnar, Session: "alloc-session", Seq: seq, Raw: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	replay := func() {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if n, err := s.Replay("alloc-program", func(Receipt) error { return nil }); err != nil || n != records {
			t.Fatalf("replay: %d ops, err %v", n, err)
		}
	}
	measure := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	open := measure(func() {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_ = s.Close()
	})
	replay() // warm
	wal := uint64(records * len(payload))
	got := measure(replay) - open
	if per := got / records; per > 256 || got >= wal/2 {
		t.Fatalf("a warm replay of a %d-record, %d B journal allocates %d B (%d B a record) besides the open; want no journal-sized buffer and at most 256 B a record", records, wal, got, per)
	}
}
