package hive

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/exectree"
	"repro/internal/fix"
	"repro/internal/journal"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/proof"
	"repro/internal/stats"
	"repro/internal/trace"
)

// durableCorpus generates a deterministic two-program corpus: one buggy
// (crash fix synthesis) and one clean (provable).
func durableCorpus(t testing.TB) []*prog.Program {
	t.Helper()
	buggy, _, err := proggen.Generate(proggen.Spec{
		Seed: 6001, Depth: 5, NumInputs: 1, TriggerWidth: 24,
		Bugs: []proggen.BugKind{proggen.BugCrash},
	})
	if err != nil {
		t.Fatal(err)
	}
	clean, _, err := proggen.Generate(proggen.Spec{Seed: 6002, Depth: 5, NumInputs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return []*prog.Program{buggy, clean}
}

// captureTrace executes p on input and returns the shipped trace.
func captureSeqTrace(t testing.TB, p *prog.Program, podID string, seq uint64, input []int64, privacy trace.PrivacyLevel) *trace.Trace {
	t.Helper()
	col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
	m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	return col.Finish(podID, seq, res, input, privacy, "fleet")
}

// newDurableHive registers the corpus and recovers from dir.
func newDurableHive(t testing.TB, dir string, corpus []*prog.Program) (*Hive, *journal.Store) {
	t.Helper()
	h := New("fleet")
	for _, p := range corpus {
		if err := h.RegisterProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Recover(store); err != nil {
		t.Fatal(err)
	}
	return h, store
}

// feedFleet drives a deterministic mixed workload into the hive: benign
// runs, crash triggers (fix synthesis), and some raw-privacy traces
// (known-good harvesting).
func feedFleet(t testing.TB, h *Hive, corpus []*prog.Program, runs int, seed uint64) {
	t.Helper()
	rng := stats.NewRNG(seed)
	seq := uint64(0)
	for r := 0; r < runs; r++ {
		for pi, p := range corpus {
			privacy := trace.PrivacyHashed
			if r%3 == 0 {
				privacy = trace.PrivacyRaw
			}
			input := []int64{rng.Int63n(256)}
			seq++
			tr := captureSeqTrace(t, p, fmt.Sprintf("pod-%d-%d", pi, r%4), seq, input, privacy)
			if err := h.SubmitTraces([]*trace.Trace{tr}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// assertHivesEqual asserts the full acceptance-criteria equality between
// two hives: same ProgramStats, same Frontiers(k) for every program, same
// published fixes and standing proofs.
func assertHivesEqual(t *testing.T, want, got *Hive, corpus []*prog.Program) {
	t.Helper()
	for _, p := range corpus {
		ws, err := want.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := got.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		// Samples are compared by content: pointer identity differs across
		// processes by construction.
		wf, gf := ws.Failures, gs.Failures
		ws.Failures, gs.Failures = nil, nil
		// The reconstruction memo's counters describe a process, not the
		// program's state: a hive restored from a snapshot never looked up
		// what the live one did.
		ws.Reconstructor, gs.Reconstructor = exectree.ReconstructorStats{}, exectree.ReconstructorStats{}
		if !reflect.DeepEqual(ws, gs) {
			t.Errorf("program %s: stats mismatch:\n want %+v\n  got %+v", p.Name, ws, gs)
		}
		if len(wf) != len(gf) {
			t.Fatalf("program %s: %d failure records, want %d", p.Name, len(gf), len(wf))
		}
		for i := range wf {
			if wf[i].Signature != gf[i].Signature || wf[i].Count != gf[i].Count ||
				wf[i].Pods != gf[i].Pods || wf[i].Fixed != gf[i].Fixed ||
				wf[i].InRepairLab != gf[i].InRepairLab {
				t.Errorf("program %s: failure %d mismatch:\n want %+v\n  got %+v", p.Name, i, wf[i], gf[i])
			}
			if (wf[i].Sample == nil) != (gf[i].Sample == nil) {
				t.Errorf("program %s: failure %d sample presence mismatch", p.Name, i)
			} else if wf[i].Sample != nil && !reflect.DeepEqual(wf[i].Sample, gf[i].Sample) {
				t.Errorf("program %s: failure %d sample mismatch", p.Name, i)
			}
		}

		wt, gt := want.liveTree(p.ID), got.liveTree(p.ID)
		sameFrontiers := func(a, b []exectree.Frontier) bool {
			if len(a) == 0 && len(b) == 0 {
				return true // nil vs empty: both mean "no frontiers"
			}
			return reflect.DeepEqual(a, b)
		}
		if !sameFrontiers(wt.FrontiersAll(), gt.FrontiersAll()) {
			t.Errorf("program %s: full frontier sets mismatch", p.Name)
		}
		for _, k := range []int{1, 4, 64} {
			if !sameFrontiers(wt.Frontiers(k), gt.Frontiers(k)) {
				t.Errorf("program %s: Frontiers(%d) mismatch", p.Name, k)
			}
		}
		if !sameFrontiers(gt.FrontiersAll(), gt.FrontiersByWalk(0)) {
			t.Errorf("program %s: recovered frontier index disagrees with full walk", p.Name)
		}

		wfx, wver, err := want.FixesSince(p.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		gfx, gver, err := got.FixesSince(p.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if wver != gver || !reflect.DeepEqual(wfx, gfx) {
			t.Errorf("program %s: fixes mismatch: versions %d/%d", p.Name, wver, gver)
		}

		wpr, err := want.PublishedProofs(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		gpr, err := got.PublishedProofs(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(wpr) != len(gpr) {
			t.Fatalf("program %s: %d standing proofs, want %d", p.Name, len(gpr), len(wpr))
		}
		for i := range wpr {
			w, g := *wpr[i], *gpr[i]
			if w.Property != g.Property || w.Complete != g.Complete || w.Holds != g.Holds ||
				w.PathsCovered != g.PathsCovered || w.Epoch != g.Epoch {
				t.Errorf("program %s: proof %d mismatch:\n want %+v\n  got %+v", p.Name, i, w, g)
			}
		}
	}
}

// feedExternalOnly submits the same few external-only executions of p over
// and over, untagged through the SubmitTraces edge and as tagged frames:
// after the first round every trace is one the program's reconstructor has
// expanded before.
func feedExternalOnly(t *testing.T, h *Hive, p *prog.Program, rounds int) {
	t.Helper()
	var batch []*trace.Trace
	for i := 0; i < 8; i++ {
		batch = append(batch, captureIn(t, p, trace.CaptureExternalOnly, []int64{int64(i * 37 % 256)}))
	}
	for r := 0; r < rounds; r++ {
		if err := h.SubmitTraces(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := submitSession(t, h, "sess-ext", uint64(r+1), p.ID, batch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHiveJournalReplayRoundTrip is the journal-only acceptance test: a
// hive rebuilt from op replay alone (no snapshot was ever taken) is
// semantically identical to the original — including external-only traffic
// the live hive merged from remembered reconstructions: replay runs the
// same lookups against its own, cold, reconstructor and arrives at the same
// counters and the same tree. The original is itself held to an in-memory
// hive fed the same batches, proof and certifying pulls: the in-memory
// hive's nil journal records nothing and hands back the receipt each apply
// takes, so both run the same applies and end in the same state.
func TestHiveJournalReplayRoundTrip(t *testing.T) {
	corpus := append(durableCorpus(t), buildTwoDead(t))
	dir := t.TempDir()
	h1, store1 := newDurableHive(t, dir, corpus)
	mem := New("fleet")
	for _, p := range corpus {
		if err := mem.RegisterProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range []*Hive{mem, h1} {
		feedFleet(t, h, corpus, 40, 1)
		feedExternalOnly(t, h, corpus[0], 5)
		for _, p := range corpus {
			if _, err := h.Guidance(p.ID, 4); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := h.Prove(corpus[1].ID, proof.PropNoCrash); err != nil {
			t.Fatal(err)
		}
	}
	st, err := h1.ProgramStats(corpus[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.FixCount == 0 {
		t.Fatal("workload minted no fixes; test would prove nothing")
	}
	if journaledCerts(t, store1, corpus[2].ID) == 0 {
		t.Fatal("the pulls certified nothing; test would prove nothing")
	}
	if err := h1.DurabilityError(); err != nil {
		t.Fatal(err)
	}
	assertHivesEqual(t, mem, h1, corpus)
	for _, p := range corpus {
		mf, _, _ := mem.FixesSince(p.ID, 0)
		df, _, _ := h1.FixesSince(p.ID, 0)
		for i := 0; i < min(len(mf), len(df)); i++ {
			me, err := fix.Encode(&mf[i])
			if err != nil {
				t.Fatal(err)
			}
			de, err := fix.Encode(&df[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(me, de) {
				t.Errorf("program %s: fix %d differs between the in-memory and the durable hive:\n%s\n%s", p.Name, i, me, de)
			}
		}
	}
	// Crash: no checkpoint, no graceful anything — just drop the hive.
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	h2, store2 := newDurableHive(t, dir, corpus)
	defer store2.Close()
	assertHivesEqual(t, h1, h2, corpus)
	for _, h := range []*Hive{h1, h2} {
		st, err := h.ProgramStats(corpus[0].ID)
		if err != nil {
			t.Fatal(err)
		}
		if rs := st.Reconstructor; st.Reconstructed != 80 || rs.Misses > 8 || rs.Hits+rs.Misses != 80 {
			t.Fatalf("reconstructed=%d with %d hits, %d misses; want 80 reconstructed, at most one replay per distinct trace", st.Reconstructed, rs.Hits, rs.Misses)
		}
	}
}

// TestHiveSnapshotPlusSuffixRoundTrip checkpoints mid-workload so recovery
// exercises snapshot-plus-journal-suffix reconstruction, then crashes and
// compares.
func TestHiveSnapshotPlusSuffixRoundTrip(t *testing.T) {
	corpus := durableCorpus(t)
	dir := t.TempDir()
	h1, store1 := newDurableHive(t, dir, corpus)
	feedFleet(t, h1, corpus, 25, 1)
	if err := h1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feedFleet(t, h1, corpus, 25, 2)
	if _, err := h1.Prove(corpus[1].ID, proof.PropNoCrash); err != nil {
		t.Fatal(err)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	h2, store2 := newDurableHive(t, dir, corpus)
	defer store2.Close()
	assertHivesEqual(t, h1, h2, corpus)

	// The recovered hive is live: it keeps ingesting and checkpointing.
	feedFleet(t, h2, corpus, 5, 3)
	if err := h2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := h2.DurabilityError(); err != nil {
		t.Fatal(err)
	}
}

// TestHiveKillRestartMidStream crashes the hive between two halves of a
// sequenced stream: nothing acknowledged before the kill is lost, and
// resubmitting the whole stream after recovery ingests each batch exactly
// once.
func TestHiveKillRestartMidStream(t *testing.T) {
	corpus := durableCorpus(t)
	p := corpus[0]
	dir := t.TempDir()
	h1, store1 := newDurableHive(t, dir, corpus)

	rng := stats.NewRNG(7)
	var batches [][]*trace.Trace
	for i := 0; i < 12; i++ {
		var batch []*trace.Trace
		for j := 0; j < 4; j++ {
			batch = append(batch, captureSeqTrace(t, p, "pod-s", uint64(i*4+j), []int64{rng.Int63n(256)}, trace.PrivacyHashed))
		}
		batches = append(batches, batch)
	}

	const session = "sess-kill-restart"
	for i := 0; i < 7; i++ { // first 7 frames acknowledged, then the crash
		dup, err := submitSession(t, h1, session, uint64(i+1), p.ID, batches[i])
		if err != nil || dup {
			t.Fatalf("frame %d: dup=%v err=%v", i, dup, err)
		}
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	h2, store2 := newDurableHive(t, dir, corpus)
	defer store2.Close()
	st, err := h2.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(7 * 4); st.Ingested != want {
		t.Fatalf("after recovery: ingested %d, want %d (no acknowledged trace lost)", st.Ingested, want)
	}

	// The client reconnects and, not knowing which frames survived,
	// resubmits the entire stream with its original sequence numbers.
	dups := 0
	for i := range batches {
		dup, err := submitSession(t, h2, session, uint64(i+1), p.ID, batches[i])
		if err != nil {
			t.Fatalf("resubmit frame %d: %v", i, err)
		}
		if dup {
			dups++
		}
	}
	if dups != 7 {
		t.Fatalf("resubmission deduplicated %d frames, want 7", dups)
	}
	st, err = h2.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(batches) * 4); st.Ingested != want {
		t.Fatalf("after resubmission: ingested %d, want %d (exactly once)", st.Ingested, want)
	}
}

// TestHiveRecoverRejectsUnknownProgram guards against silently dropping a
// data directory that disagrees with the registered corpus.
func TestHiveRecoverRejectsUnknownProgram(t *testing.T) {
	corpus := durableCorpus(t)
	dir := t.TempDir()
	h1, store1 := newDurableHive(t, dir, corpus)
	feedFleet(t, h1, corpus, 2, 1)
	store1.Close()

	h2 := New("fleet") // empty corpus: every persisted program is unknown
	store2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if err := h2.Recover(store2); err == nil {
		t.Fatal("Recover accepted a journal for unregistered programs")
	}
}

// BenchmarkHiveRecover measures crash recovery. programs=2 rebuilds a hive
// from a journal of pre-captured batch ops alone (batch replay through the
// ingest path is the whole cost); programs=8 recovers buildRecoveryDir's
// directory — a base, two delta segments and a journal suffix per program —
// with as many workers as GOMAXPROCS allows.
func BenchmarkHiveRecover(b *testing.B) {
	b.Run("programs=2", func(b *testing.B) {
		corpus := durableCorpus(b)
		dir := b.TempDir()
		h, store := newDurableHive(b, dir, corpus)
		feedFleet(b, h, corpus, 100, 1)
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
		benchRecover(b, dir, corpus)
	})
	b.Run("programs=8", func(b *testing.B) {
		corpus := recoveryCorpus(b, 8)
		dir := b.TempDir()
		buildRecoveryDir(b, dir, corpus)
		benchRecover(b, dir, corpus)
	})
}

func benchRecover(b *testing.B, dir string, corpus []*prog.Program) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h2 := New("fleet")
		for _, p := range corpus {
			if err := h2.RegisterProgram(p); err != nil {
				b.Fatal(err)
			}
		}
		s, err := journal.Open(dir, journal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := h2.Recover(s); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
