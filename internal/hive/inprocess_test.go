package hive

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/journal"
	"repro/internal/pod"
	"repro/internal/trace"
)

// TestBufferedInProcessColumnarJournal pins the in-process fleet fast path:
// a BufferedClient bound to a durable hive drains through the columnar
// submitter, so the journal records whole-batch columnar ops — byte-equal
// to the canonical batch encoding of each 256-trace drain chunk — and not
// one per-trace op. Before this path, an in-process fleet re-encoded every
// trace individually on the journal leg while the wire path shipped batches;
// now both legs write the same bytes once.
func TestBufferedInProcessColumnarJournal(t *testing.T) {
	p := buildCrashy(t)
	dir := t.TempDir()
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Recover(store); err != nil {
		t.Fatal(err)
	}

	corpus := captureMixed(t, p, 600)
	buf := pod.NewBufferedFor(h, p.ID)
	if err := buf.SubmitTraces(corpus); err != nil {
		t.Fatal(err)
	}
	if err := buf.Drain(); err != nil {
		t.Fatal(err)
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != int64(len(corpus)) {
		t.Fatalf("hive ingested %d traces, want %d", st.Ingested, len(corpus))
	}
	_ = store.Close()

	// The drain chunks the queue at 256 traces per frame; recompute the
	// canonical encoding of each chunk and demand the journal holds exactly
	// those bytes, as whole-batch ops.
	var want [][]byte
	for start := 0; start < len(corpus); start += 256 {
		end := start + 256
		if end > len(corpus) {
			end = len(corpus)
		}
		enc, err := trace.EncodeBatch(p.ID, corpus[start:end])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, enc)
	}
	reread, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reread.Close()
	var got [][]byte
	perTrace := 0
	if _, err := reread.Replay(p.ID, func(r journal.Receipt) error {
		op := r.Op()
		switch op.Kind {
		case journal.OpBatchColumnar:
			got = append(got, append([]byte(nil), op.Raw...))
		case journal.OpBatch:
			perTrace++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if perTrace != 0 {
		t.Fatalf("in-process drain journaled %d materialized batch ops; want all-columnar", perTrace)
	}
	if len(got) != len(want) {
		t.Fatalf("journal holds %d columnar ops, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("journaled chunk %d differs from canonical batch encoding", i)
		}
	}

	// Recovery from those whole-batch ops reproduces the live state.
	store2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	h2 := New("fleet")
	if err := h2.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	if err := h2.Recover(store2); err != nil {
		t.Fatal(err)
	}
	after, err := h2.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	st.Failures, after.Failures = nil, nil
	if !reflect.DeepEqual(st, after) {
		t.Fatalf("recovered stats differ: before %+v after %+v", st, after)
	}
}
