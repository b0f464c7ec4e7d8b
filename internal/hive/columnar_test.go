package hive

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/journal"
	"repro/internal/prog"
	"repro/internal/trace"
)

// captureMixed runs the crashy program under a mix of capture modes and
// privacy levels — full, external-only (reconstructable), raw-privacy OK
// runs (known-good harvest), and crashing inputs (failure aggregation +
// fix synthesis) — returning one program-homogeneous trace corpus.
func captureMixed(t *testing.T, p *prog.Program, n int) []*trace.Trace {
	t.Helper()
	modes := []trace.CaptureMode{trace.CaptureFull, trace.CaptureExternalOnly}
	out := make([]*trace.Trace, 0, n)
	for i := 0; i < n; i++ {
		mode := modes[i%len(modes)]
		privacy := trace.PrivacyHashed
		if i%3 == 0 {
			privacy = trace.PrivacyRaw
		}
		input := []int64{int64(i * 17 % 160)}
		col := trace.NewCollector(p, mode, 0, uint64(i+1))
		m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		out = append(out, col.Finish(fmt.Sprintf("pod-%d", i%4), uint64(i), res, input, privacy, "fleet"))
	}
	return out
}

// TestSubmitTracesEncodesAtEdge pins the materialized entry point as an
// edge of the one ingest path, not a path of its own: a mixed-program,
// mixed-capture-mode batch through SubmitTraces leaves the hive — tree
// bytes, counters, failure tables, fixes — exactly where the same
// per-program groups leave it as columnar frames, the journal holds nothing
// but the canonical encoding of each group, and an unknown program rejects
// the whole call before anything is ingested.
func TestSubmitTracesEncodesAtEdge(t *testing.T) {
	corpus := durableCorpus(t)
	var mixed []*trace.Trace
	groups := make(map[string][]*trace.Trace)
	perProgram := [][]*trace.Trace{captureMixed(t, corpus[0], 48), captureMixed(t, corpus[1], 48)}
	for i := range perProgram[0] {
		for pi, p := range corpus {
			mixed = append(mixed, perProgram[pi][i])
			groups[p.ID] = append(groups[p.ID], perProgram[pi][i])
		}
	}

	edgeDir := t.TempDir()
	hEdge, edgeStore := newDurableHive(t, edgeDir, corpus)
	hCol, colStore := newDurableHive(t, t.TempDir(), corpus)
	defer colStore.Close()

	ghost := append(append([]*trace.Trace(nil), mixed...), &trace.Trace{ProgramID: "ghost"})
	if err := hEdge.SubmitTraces(ghost); !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("batch naming an unknown program: err = %v, want ErrUnknownProgram", err)
	}
	for _, p := range corpus {
		if n := ingested(t, hEdge, p.ID); n != 0 {
			t.Fatalf("rejected call ingested %d traces of %s", n, p.Name)
		}
	}

	if err := hEdge.SubmitTraces(mixed); err != nil {
		t.Fatal(err)
	}
	for _, p := range corpus {
		if dup, err := submitSession(t, hCol, "", 0, p.ID, groups[p.ID]); err != nil || dup {
			t.Fatalf("%s: dup=%v err=%v", p.Name, dup, err)
		}
	}

	assertHivesEqual(t, hCol, hEdge, corpus)
	for _, p := range corpus {
		st, err := hEdge.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingested != int64(len(groups[p.ID])) || st.Reconstructed == 0 {
			t.Fatalf("%s: corpus did not exercise ingest and reconstruction: %+v", p.Name, st)
		}
		tEdge, _ := hEdge.Tree(p.ID)
		tCol, _ := hCol.Tree(p.ID)
		if !bytes.Equal(tEdge.Encode(), tCol.Encode()) {
			t.Fatalf("%s: execution trees differ between the edge and the columnar entry", p.Name)
		}
	}

	if err := edgeStore.Close(); err != nil {
		t.Fatal(err)
	}
	reread, err := journal.Open(edgeDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reread.Close()
	for _, p := range corpus {
		want, err := trace.EncodeBatch(p.ID, groups[p.ID])
		if err != nil {
			t.Fatal(err)
		}
		batches := 0
		if _, err := reread.Replay(p.ID, func(r journal.Receipt) error {
			if op := r.Op(); op.Kind == journal.OpBatchColumnar {
				batches++
				if op.Session != "" || !bytes.Equal(op.Raw, want) {
					t.Errorf("%s: journaled batch is not the untagged canonical encoding of the group", p.Name)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if batches != 1 {
			t.Errorf("%s: journal holds %d batch records, want 1", p.Name, batches)
		}
	}
}
