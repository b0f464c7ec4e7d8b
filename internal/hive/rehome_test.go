package hive

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestSessionEvictionCounter forces the dedup table past its live-cache
// bound and checks the displacement counter and the note-once log: past
// maxSessions distinct sessions, every new session freezes exactly one LRU
// victim to the overflow tier, the first displacement (only the first)
// notes through Logf — and, the PR 10 contract, a displaced session keeps
// its full applied window when it thaws.
func TestSessionEvictionCounter(t *testing.T) {
	h := New("fleet")
	var warnings []string
	h.Logf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	for i := 0; i < maxSessions; i++ {
		h.markSession(fmt.Sprintf("sess-%d", i), 1)
	}
	if got := h.SessionEvictions(); got != 0 {
		t.Fatalf("displacements before the cache is full: %d", got)
	}
	const extra = 5
	for i := 0; i < extra; i++ {
		h.markSession(fmt.Sprintf("overflow-%d", i), 1)
	}
	if got := h.SessionEvictions(); got != extra {
		t.Fatalf("displacements = %d, want %d", got, extra)
	}
	if live, frozen := h.SessionCount(); live != maxSessions || frozen != extra {
		t.Fatalf("tier sizes: live=%d frozen=%d, want %d/%d", live, frozen, maxSessions, extra)
	}
	if len(warnings) != 1 {
		t.Fatalf("first displacement should note exactly once, got %d notes: %v", len(warnings), warnings)
	}
	if !strings.Contains(warnings[0], "exactly-once is unaffected") {
		t.Fatalf("note should state that dedup is preserved: %q", warnings[0])
	}
	// The displaced session (sess-0 was least recently used) thaws with its
	// window intact: its acked seq still dedups — exactly-once, unbounded.
	if !h.sessionApplied(h.sessionFor("sess-0"), 1) {
		t.Fatal("displaced session lost its applied window")
	}
	if live, frozen := h.SessionCount(); live != maxSessions || frozen != extra {
		t.Fatalf("thaw changed totals wrong: live=%d frozen=%d", live, frozen)
	}
}

// TestExportImportRoundTrip re-homes a program between two durable hives:
// export on A (after real ingest with sequenced sessions), ship as bytes,
// import on B. B must answer resubmitted (session, seq) frames as
// duplicates — exactly-once survives the move — and B's own restart must
// recover the imported state from B's data dir alone.
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

	snap, err := ha.ExportProgram(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Ship as bytes: the wire form must round-trip bit-exactly.
	raw, err := journal.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := journal.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}

	hb, storeB := newDurableHive(t, dirB, corpus)
	if err := hb.ImportProgram(shipped); err != nil {
		t.Fatal(err)
	}
	statsB, err := hb.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if statsB.Ingested != statsA.Ingested || statsB.Tree.Paths != statsA.Tree.Paths || statsB.FixCount != statsA.FixCount {
		t.Fatalf("imported stats diverge: A ingested=%d paths=%d fixes=%d, B ingested=%d paths=%d fixes=%d",
			statsA.Ingested, statsA.Tree.Paths, statsA.FixCount, statsB.Ingested, statsB.Tree.Paths, statsB.FixCount)
	}

	// Frames the old owner acknowledged must dup-ack on the new owner: the
	// session table traveled with the snapshot.
	for i, batch := range batches {
		dup, err := submitSession(t, hb, session, uint64(i+1), p.ID, batch)
		if err != nil {
			t.Fatal(err)
		}
		if !dup {
			t.Fatalf("frame %d re-applied after re-homing (exactly-once broken)", i)
		}
	}
	after, _ := hb.ProgramStats(p.ID)
	if after.Ingested != statsA.Ingested {
		t.Fatalf("ingested moved on duplicate resubmission: %d -> %d", statsA.Ingested, after.Ingested)
	}
	// And new frames keep flowing on the new owner.
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
// program must fail loudly instead of merging histories.
func TestImportGuards(t *testing.T) {
	corpus := durableCorpus(t)
	p := corpus[0]
	ha := New("fleet")
	for _, pr := range corpus {
		if err := ha.RegisterProgram(pr); err != nil {
			t.Fatal(err)
		}
	}
	tr := captureSeqTrace(t, p, "pod-g", 1, []int64{3}, trace.PrivacyHashed)
	if _, err := submitSession(t, ha, "s", 1, p.ID, []*trace.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	snap, err := ha.ExportProgram(p.ID)
	if err != nil {
		t.Fatal(err)
	}

	empty := New("fleet")
	if err := empty.ImportProgram(snap); err == nil {
		t.Fatal("import into a hive without the program registered must fail")
	}
	if err := ha.ImportProgram(snap); err == nil {
		t.Fatal("import over a program that already ingested must fail")
	}
	if err := ha.ImportProgram(&journal.ProgramSnapshot{ProgramID: p.ID}); err == nil {
		t.Fatal("import of a tree-less snapshot must fail")
	}

	// DropProgram forgets the program; subsequent frames err cleanly.
	ha.DropProgram(p.ID)
	if _, err := submitSession(t, ha, "s", 2, p.ID, []*trace.Trace{tr}); err == nil {
		t.Fatal("dropped program still accepts frames")
	}
	ha.DropProgram(p.ID) // idempotent
}

// TestExportFromStore is the takeover path: a dead hive's data dir is
// recovered by a scratch hive and its programs exported for survivors.
func TestExportFromStore(t *testing.T) {
	corpus := durableCorpus(t)
	p := corpus[0]
	dir := t.TempDir()
	ha, storeA := newDurableHive(t, dir, corpus)
	tr := captureSeqTrace(t, p, "pod-t", 1, []int64{9}, trace.PrivacyHashed)
	if _, err := submitSession(t, ha, "s-dead", 1, p.ID, []*trace.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	if err := storeA.Close(); err != nil { // the "crash"
		t.Fatal(err)
	}

	store2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	snaps, err := ExportFromStore(store2, corpus, "fleet")
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := snaps[p.ID]
	if !ok || len(snap.Tree) == 0 {
		t.Fatalf("takeover export missing program %s (got %d snapshots)", p.ID, len(snaps))
	}
	hb := New("fleet")
	for _, pr := range corpus {
		if err := hb.RegisterProgram(pr); err != nil {
			t.Fatal(err)
		}
	}
	if err := hb.ImportProgram(snap); err != nil {
		t.Fatal(err)
	}
	if dup, err := submitSession(t, hb, "s-dead", 1, p.ID, []*trace.Trace{tr}); err != nil || !dup {
		t.Fatalf("acked frame from the dead hive re-applied: dup=%v err=%v", dup, err)
	}
}
