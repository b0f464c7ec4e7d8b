package hive

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/journal"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/proof"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestHiveIncrementalSnapshotRoundTrip is the delta-segment acceptance
// test: a hive recovered from full snapshot + delta segments + journal
// suffix is semantically identical to the live hive — the incremental
// sibling of TestHiveSnapshotPlusSuffixRoundTrip.
func TestHiveIncrementalSnapshotRoundTrip(t *testing.T) {
	corpus := durableCorpus(t)
	dir := t.TempDir()
	h1, store1 := newDurableHive(t, dir, corpus)

	// Base: full snapshots (first checkpoint per program is always full).
	feedFleet(t, h1, corpus, 15, 1)
	if err := h1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, p := range corpus {
		if n := chainLength(t, store1, p.ID); n != 0 {
			t.Fatalf("program %s: first checkpoint left %d deltas, want full base", p.ID, n)
		}
	}

	// Two delta segments, one with a proof attempt in between so OpProof
	// evidence is compacted into a segment eagerly.
	feedFleet(t, h1, corpus, 15, 2)
	if err := h1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Prove(corpus[1].ID, proof.PropNoCrash); err != nil {
		t.Fatal(err)
	}
	feedFleet(t, h1, corpus, 15, 3)
	if err := h1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, p := range corpus {
		if n := chainLength(t, store1, p.ID); n != 2 {
			t.Fatalf("program %s: chain length %d, want 2 delta segments", p.ID, n)
		}
	}

	// Journal suffix past the last segment, then crash.
	feedFleet(t, h1, corpus, 10, 4)
	if err := h1.DurabilityError(); err != nil {
		t.Fatal(err)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	h2, store2 := newDurableHive(t, dir, corpus)
	defer store2.Close()
	assertHivesEqual(t, h1, h2, corpus)

	// The recovered hive keeps the chain going: its next checkpoint is
	// another delta over the recovered base, and survives a second crash.
	feedFleet(t, h2, corpus, 5, 5)
	if err := h2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, p := range corpus {
		if n := chainLength(t, store2, p.ID); n != 3 {
			t.Fatalf("program %s: post-recovery chain length %d, want 3", p.ID, n)
		}
	}
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}
	h3, store3 := newDurableHive(t, dir, corpus)
	defer store3.Close()
	assertHivesEqual(t, h2, h3, corpus)
}

// TestHiveIncrementalCompaction pins the compaction policy: after
// compactEvery delta segments the next checkpoint writes a full snapshot
// and collapses the chain.
func TestHiveIncrementalCompaction(t *testing.T) {
	corpus := durableCorpus(t)
	p := corpus[0]
	dir := t.TempDir()
	h, store := newDurableHive(t, dir, corpus)
	defer store.Close()
	h.SetCompactEvery(2)

	feedFleet(t, h, corpus, 5, 1)
	steps := []int{0, 1, 2, 0, 1} // expected chain length after each checkpoint
	for i, want := range steps {
		feedFleet(t, h, corpus, 3, uint64(10+i))
		if err := h.CheckpointProgram(p.ID); err != nil {
			t.Fatal(err)
		}
		if got := chainLength(t, store, p.ID); got != want {
			t.Fatalf("checkpoint %d: chain length %d, want %d", i, got, want)
		}
	}

	// compactEvery <= 0 restores the always-full policy.
	h.SetCompactEvery(0)
	feedFleet(t, h, corpus, 3, 99)
	if err := h.CheckpointProgram(p.ID); err != nil {
		t.Fatal(err)
	}
	if got := chainLength(t, store, p.ID); got != 0 {
		t.Fatalf("always-full policy left %d deltas", got)
	}
}

// TestHiveDeltaCheckpointPauseIsBounded pins the reason incremental
// snapshots exist: on a big tree with a small recent change, the delta
// segment must be far smaller than a full snapshot.
func TestHiveDeltaCheckpointPauseIsBounded(t *testing.T) {
	// A deeper multi-input program so the collective tree actually grows
	// large (the two-program durable corpus stays tiny by design).
	big, _, err := proggen.Generate(proggen.Spec{
		Seed: 9001, Depth: 9, Loops: 2, NumInputs: 4, DetBranches: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	h, store := newDurableHive(t, dir, []*prog.Program{big})
	defer store.Close()

	rng := stats.NewRNG(31)
	var batch []*trace.Trace
	for i := 0; i < 400; i++ {
		input := []int64{rng.Int63n(256), rng.Int63n(256), rng.Int63n(256), rng.Int63n(256)}
		batch = append(batch, captureSeqTrace(t, big, "pod-big", uint64(i), input, trace.PrivacyHashed))
	}
	if err := h.SubmitTraces(batch); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckpointProgram(big.ID); err != nil { // full base
		t.Fatal(err)
	}
	tree := h.liveTree(big.ID)
	full := len(tree.Encode())
	// A single new trace, then a delta checkpoint.
	tr := captureSeqTrace(t, big, "pod-tiny", 1000, []int64{3, 5, 7, 9}, trace.PrivacyHashed)
	if err := h.SubmitTraces([]*trace.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	delta := len(tree.EncodeDelta())
	if delta == 0 || delta >= full/4 {
		t.Fatalf("delta segment %dB vs full tree %dB: pause not bounded by changes", delta, full)
	}
	if err := h.CheckpointProgram(big.ID); err != nil {
		t.Fatal(err)
	}
	if chainLength(t, store, big.ID) != 1 {
		t.Fatal("tiny change did not produce a delta segment")
	}
}

// TestRawPrivacyHeavyStriped hammers one program with raw-privacy known-good
// inputs, coordinated-sampling fragments, and crash signatures, from many
// goroutines, with stats/guidance readers in flight. Run under -race this
// is the regression test for knownGood and the coordinated buffer under the
// program's lock; the counters must be exact.
func TestRawPrivacyHeavyStriped(t *testing.T) {
	p := buildTwoSiteCrashy(t)
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}

	const goroutines = 12
	const rounds = 20
	const k = 2 // coordinated family width

	oks := make([]*trace.Trace, goroutines)
	crashes := make([]*trace.Trace, goroutines)
	frags := make([][]*trace.Trace, goroutines)
	for g := 0; g < goroutines; g++ {
		podID := fmt.Sprintf("raw-pod-%d", g)
		// Raw privacy: every OK trace is a known-good harvest.
		oks[g] = captureTrace(t, p, podID, []int64{int64(40 + g)}, trace.PrivacyRaw)
		crashes[g] = captureTrace(t, p, podID, []int64{5}, trace.PrivacyRaw)
		// A per-goroutine coordinated family over a distinct input so each
		// family completes exactly once.
		input := []int64{int64(60 + g)}
		for phase := uint32(0); phase < k; phase++ {
			col := trace.NewCoordinatedCollector(p, phase, k)
			m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
			if err != nil {
				t.Fatal(err)
			}
			res := m.Run()
			frags[g] = append(frags[g], col.Finish(podID, uint64(phase), res, input, trace.PrivacyRaw, "fleet"))
		}
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines+2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				batch := []*trace.Trace{oks[g], crashes[g]}
				if r == 0 {
					batch = append(batch, frags[g]...)
				}
				if err := h.SubmitTraces(batch); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	// Concurrent readers on the same state.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				if _, err := h.ProgramStats(p.ID); err != nil {
					errs <- err
					return
				}
				if _, err := h.Guidance(p.ID, 4); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(goroutines*rounds*2 + goroutines*k)
	if st.Ingested != want {
		t.Fatalf("ingested %d traces, want %d", st.Ingested, want)
	}
	if st.Narrowed != goroutines {
		t.Fatalf("narrowed %d coordinated families, want %d", st.Narrowed, goroutines)
	}
}

// TestSessionDedupOutOfOrder pins the exact-set dedup window: sequence
// numbers applied out of order (parked frames resubmitted after later
// frames succeeded, rejected frames retried under their original tag) are
// each applied exactly once, in any interleaving, and the window survives
// a checkpoint + recovery.
func TestSessionDedupOutOfOrder(t *testing.T) {
	corpus := durableCorpus(t)
	p := corpus[0]
	dir := t.TempDir()
	h, store := newDurableHive(t, dir, corpus)

	batch := func(i int) []*trace.Trace {
		return []*trace.Trace{captureSeqTrace(t, p, "pod-ooo", uint64(i), []int64{int64(i % 200)}, trace.PrivacyHashed)}
	}
	// Apply seqs 2, 4, 5 first (1 and 3 in limbo), then the stragglers.
	for _, seq := range []uint64{2, 4, 5} {
		if dup, err := submitSession(t, h, "sess-ooo", seq, p.ID, batch(int(seq))); err != nil || dup {
			t.Fatalf("seq %d: dup=%v err=%v", seq, dup, err)
		}
	}
	// Resubmitting an applied seq is a dup; the gaps are not.
	if dup, _ := submitSession(t, h, "sess-ooo", 4, p.ID, batch(4)); !dup {
		t.Fatal("seq 4 re-applied despite being in the window")
	}
	for _, seq := range []uint64{3, 1} {
		if dup, err := submitSession(t, h, "sess-ooo", seq, p.ID, batch(int(seq))); err != nil || dup {
			t.Fatalf("straggler seq %d: dup=%v err=%v", seq, dup, err)
		}
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 5 {
		t.Fatalf("ingested %d, want exactly 5", st.Ingested)
	}

	// The window survives checkpoint + crash: seq 7 applied out of order
	// before the checkpoint, 6 resubmitted after recovery must still apply,
	// 7 must still dedup.
	if dup, _ := submitSession(t, h, "sess-ooo", 7, p.ID, batch(7)); dup {
		t.Fatal("seq 7 wrongly deduped")
	}
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	store.Close()
	h2, store2 := newDurableHive(t, dir, corpus)
	defer store2.Close()
	if dup, _ := submitSession(t, h2, "sess-ooo", 7, p.ID, batch(7)); !dup {
		t.Fatal("recovered window lost the out-of-order mark for seq 7")
	}
	if dup, err := submitSession(t, h2, "sess-ooo", 6, p.ID, batch(6)); err != nil || dup {
		t.Fatalf("seq 6 after recovery: dup=%v err=%v", dup, err)
	}
	st2, err := h2.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Ingested != 7 {
		t.Fatalf("recovered hive ingested %d, want exactly 7", st2.Ingested)
	}
}

// chainLength counts the delta segments LoadChain layers over the program's
// base snapshot in store (0 when compact or never checkpointed).
func chainLength(t testing.TB, store *journal.Store, programID string) int {
	t.Helper()
	_, deltas, err := store.LoadChain(programID)
	if err != nil {
		t.Fatal(err)
	}
	return len(deltas)
}
