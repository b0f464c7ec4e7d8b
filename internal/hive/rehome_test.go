package hive

import (
	"fmt"
	"testing"

	"repro/internal/journal"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestSessionEvictionCounter keeps its name from the two-tier table it was
// written for (a 4096-entry live cache counting displacements into an
// overflow map). The table is one map now, so what is left is the contract:
// however many sessions arrive after it, a session keeps its entry object
// and its applied window, and nothing is counted or logged on the way.
func TestSessionEvictionCounter(t *testing.T) {
	h := New("fleet")
	h.Logf = func(format string, args ...any) {
		t.Errorf("session table logged: "+format, args...)
	}
	first := h.sessionFor("sess-0")
	const total = sessionCliff + 5
	for i := 0; i < total; i++ {
		h.sessMu.Lock()
		markAppliedLocked(h.sessionLocked(fmt.Sprintf("sess-%d", i)), 1)
		h.sessMu.Unlock()
	}
	if n, _ := h.SessionCount(); n != total {
		t.Fatalf("table holds %d sessions, want %d", n, total)
	}
	if h.sessionFor("sess-0") != first {
		t.Fatal("sess-0 got a new entry object: its submitters no longer share one mutex")
	}
	if !h.sessionApplied(first, 1) {
		t.Fatal("oldest session lost its applied window")
	}
}

// TestExportImportRoundTrip re-homes a program between two durable hives and
// follows the new owner past the move: fresh frames keep flowing on it, and
// its own restart recovers the imported state — and the frame that came
// after — from its data dir alone, the dedup table with it. (That the
// imported state equals the exported one, and that every frame the old owner
// acknowledged is a duplicate on the new one, is TestChainRoutesRestoreAlike's
// "live chain" route.)
func TestExportImportRoundTrip(t *testing.T) {
	corpus := durableCorpus(t)
	p := corpus[0]
	dirA, dirB := t.TempDir(), t.TempDir()
	ha, storeA := newDurableHive(t, dirA, corpus)
	defer storeA.Close()

	rng := stats.NewRNG(11)
	const session = "sess-rehome"
	var batches [][]*trace.Trace
	for i := 0; i < 6; i++ {
		var batch []*trace.Trace
		for j := 0; j < 4; j++ {
			batch = append(batch, captureSeqTrace(t, p, "pod-r", uint64(i*4+j), []int64{rng.Int63n(256)}, trace.PrivacyHashed))
		}
		batches = append(batches, batch)
		if dup, err := submitSession(t, ha, session, uint64(i+1), p.ID, batch); err != nil || dup {
			t.Fatalf("submit %d: dup=%v err=%v", i, dup, err)
		}
	}
	statsA, err := ha.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}

	chain, err := ha.ExportProgram(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	hb, storeB := newDurableHive(t, dirB, corpus)
	if err := hb.ImportProgram(chain); err != nil {
		t.Fatal(err)
	}
	// New frames keep flowing on the new owner.
	if dup, err := submitSession(t, hb, session, 100, p.ID, batches[0][:1]); err != nil || dup {
		t.Fatalf("fresh frame on new owner: dup=%v err=%v", dup, err)
	}

	// The import checkpointed on B: a restart from B's dir alone recovers
	// the re-homed state, old owner's data dir not required.
	if err := storeB.Close(); err != nil {
		t.Fatal(err)
	}
	hb2, storeB2 := newDurableHive(t, dirB, corpus)
	defer storeB2.Close()
	recovered, err := hb2.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Ingested != statsA.Ingested+1 {
		t.Fatalf("recovered ingested = %d, want %d", recovered.Ingested, statsA.Ingested+1)
	}
	if dup, err := submitSession(t, hb2, session, 3, p.ID, batches[2]); err != nil || !dup {
		t.Fatalf("recovered new owner lost dedup state: dup=%v err=%v", dup, err)
	}
}

// TestImportGuards: imports into an unregistered or already-populated
// program, or of a chain that is not one, must fail loudly instead of merging
// histories.
func TestImportGuards(t *testing.T) {
	corpus := durableCorpus(t)
	p := corpus[0]
	ha := newMemHive(t, corpus)
	tr := captureSeqTrace(t, p, "pod-g", 1, []int64{3}, trace.PrivacyHashed)
	if _, err := submitSession(t, ha, "s", 1, p.ID, []*trace.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	chain, err := ha.ExportProgram(p.ID)
	if err != nil {
		t.Fatal(err)
	}

	empty := New("fleet")
	if err := empty.ImportProgram(chain); err == nil {
		t.Fatal("import into a hive without the program registered must fail")
	}
	if err := ha.ImportProgram(chain); err == nil {
		t.Fatal("import over a program that already ingested must fail")
	}
	hb := newMemHive(t, corpus)
	if err := hb.ImportProgram(nil); err == nil {
		t.Fatal("import of no chain must fail")
	}
	baseless := *chain
	baseless.HasBase, baseless.Base = false, nil
	baseless.Deltas = []journal.ChainDelta{{Gen: chain.BaseGen + 1, Data: chain.Base}}
	if err := hb.ImportProgram(&baseless); err == nil {
		t.Fatal("import of delta segments without a base must fail")
	}
	pruned := *chain
	pruned.Tethered = true
	if err := hb.ImportProgram(&pruned); err == nil {
		t.Fatal("import of a chain that does not carry its pruned generations must fail")
	}

	// DropProgram forgets the program; subsequent frames err cleanly.
	if err := ha.DropProgram(p.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := submitSession(t, ha, "s", 2, p.ID, []*trace.Trace{tr}); err == nil {
		t.Fatal("dropped program still accepts frames")
	}
}
