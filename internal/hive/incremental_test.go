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
	corpus := growableCorpus(t)
	dir := t.TempDir()
	h1, store1 := newDurableHive(t, dir, corpus)

	// Base: full snapshots (first checkpoint per program is always full) of
	// grown trees, which the passes after it touch little of: a checkpoint
	// writes a base once its chain's deltas would re-state half the tree.
	feedFleet(t, h1, corpus, 300, 1)
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
	feedFleet(t, h1, corpus, 1, 2)
	if err := h1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Prove(corpus[1].ID, proof.PropNoCrash); err != nil {
		t.Fatal(err)
	}
	feedFleet(t, h1, corpus, 1, 3)
	if err := h1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, p := range corpus {
		if n := chainLength(t, store1, p.ID); n != 2 {
			t.Fatalf("program %s: chain length %d, want 2 delta segments", p.ID, n)
		}
	}

	// Journal suffix past the last segment, then crash.
	feedFleet(t, h1, corpus, 2, 4)
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
	feedFleet(t, h2, corpus, 1, 5)
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
// and collapses the chain, however little the deltas re-state.
func TestHiveIncrementalCompaction(t *testing.T) {
	corpus := growableCorpus(t)
	p := corpus[0]
	dir := t.TempDir()
	h, store := newDurableHive(t, dir, corpus)
	defer store.Close()
	h.SetCompactEvery(2)

	feedFleet(t, h, corpus, 300, 1)
	steps := []int{0, 1, 2, 0, 1} // expected chain length after each checkpoint
	for i, want := range steps {
		feedFleet(t, h, corpus, 1, uint64(10+i))
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

// growableCorpus is a buggy and a clean program of two inputs, whose trees
// grow to a few hundred nodes: large enough that one trace's root path is a
// small share of them, so a chain of small deltas stays under half the tree.
func growableCorpus(t testing.TB) []*prog.Program {
	return recoveryCorpus(t, 3)[:2]
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

// TestCheckpointBaseWhenChainRestatesHalf pins the half-tree rule: a
// checkpoint writes a delta while the node entries of the chain's deltas
// since its base, its own included, stay under half the tree's node count,
// and a base once they would reach it. A restored program goes on from the
// sum its chain holds, the count cap still compacts a chain of small
// deltas, and a tree of a few nodes keeps its deltas up to chainFloor.
func TestCheckpointBaseWhenChainRestatesHalf(t *testing.T) {
	// ckpt checkpoints the program and reports the chain's length after
	// it, with what the rule read before it: the entries the chain would
	// re-state, this checkpoint's dirty set alone, and the tree's nodes.
	type step struct {
		deltas, restated, dirty int
		nodes                   int64
	}
	ckpt := func(t *testing.T, h *Hive, store *journal.Store, p *prog.Program) step {
		t.Helper()
		tree := h.liveTree(p.ID)
		st, _ := h.state(p.ID)
		s := step{dirty: tree.DirtyNodes(), nodes: tree.Stats().Nodes}
		s.restated = st.deltaEntries + s.dirty
		if err := h.CheckpointProgram(p.ID); err != nil {
			t.Fatal(err)
		}
		s.deltas = chainLength(t, store, p.ID)
		return s
	}
	half := func(s step) bool { return 2*int64(s.restated) >= s.nodes }

	corpus := growableCorpus(t)[:1]
	p := corpus[0]
	seed := uint64(100)
	feed := func(h *Hive, runs int) {
		seed++
		feedFleet(t, h, corpus, runs, seed)
	}
	dir := t.TempDir()
	h, store := newDurableHive(t, dir, corpus)
	h.SetCompactEvery(100) // out of the way until the cap's own case
	feed(h, 300)
	if s := ckpt(t, h, store, p); s.deltas != 0 {
		t.Fatalf("first checkpoint left %d deltas, want a base", s.deltas)
	}

	t.Run("delta below half", func(t *testing.T) {
		feed(h, 1)
		if s := ckpt(t, h, store, p); half(s) || s.deltas != 1 {
			t.Fatalf("a pass re-stating %d of %d nodes left %d deltas; want 1", s.restated, s.nodes, s.deltas)
		}
	})
	t.Run("delta at or above half", func(t *testing.T) {
		feed(h, 300)
		s := ckpt(t, h, store, p)
		if 2*int64(s.dirty) < s.nodes {
			t.Fatalf("fixture: a 300-run pass dirties only %d of %d nodes", s.dirty, s.nodes)
		}
		if s.deltas != 0 {
			t.Fatalf("a pass re-stating %d of %d nodes left %d deltas; want a base", s.dirty, s.nodes, s.deltas)
		}
	})
	t.Run("small deltas whose sum crosses half", func(t *testing.T) {
		for want := 1; ; want++ {
			feed(h, 1)
			s := ckpt(t, h, store, p)
			if 2*int64(s.dirty) >= s.nodes {
				t.Fatalf("fixture: one run dirties %d of %d nodes", s.dirty, s.nodes)
			}
			if half(s) {
				if s.deltas != 0 || want < 3 {
					t.Fatalf("delta %d brings the chain to %d of %d nodes: %d deltas left; want a base after at least 2 deltas", want, s.restated, s.nodes, s.deltas)
				}
				return
			}
			if s.deltas != want {
				t.Fatalf("delta %d (chain at %d of %d nodes): chain length %d", want, s.restated, s.nodes, s.deltas)
			}
		}
	})
	t.Run("sum carried over a restore", func(t *testing.T) {
		// Deltas up to about one run short of half, then a reboot: the
		// recovered program must count them toward its next base.
		var carried, deltas int
		for {
			feed(h, 1)
			s := ckpt(t, h, store, p)
			if half(s) || s.deltas != deltas+1 {
				t.Fatalf("chain at %d of %d nodes: chain length %d, want %d", s.restated, s.nodes, s.deltas, deltas+1)
			}
			carried, deltas = s.restated, s.deltas
			if 2*int64(carried+2*s.dirty) >= s.nodes {
				break
			}
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		h, store = newDurableHive(t, dir, corpus)
		h.SetCompactEvery(100)
		if st, _ := h.state(p.ID); st.deltasSince != deltas || st.deltaEntries != carried {
			t.Fatalf("restored chain counts %d deltas of %d entries; the chain holds %d of %d", st.deltasSince, st.deltaEntries, deltas, carried)
		}
		for {
			feed(h, 1)
			s := ckpt(t, h, store, p)
			if !half(s) {
				deltas++
				if s.deltas != deltas {
					t.Fatalf("chain at %d of %d nodes after the restore: chain length %d, want %d", s.restated, s.nodes, s.deltas, deltas)
				}
				continue
			}
			if s.deltas != 0 {
				t.Fatalf("chain at %d of %d nodes after the restore: %d deltas left, want a base", s.restated, s.nodes, s.deltas)
			}
			if 2*int64(s.restated-carried) >= s.nodes {
				t.Fatalf("fixture: the deltas since the restore re-state %d of %d nodes alone", s.restated-carried, s.nodes)
			}
			return
		}
	})
	t.Run("count cap", func(t *testing.T) {
		h.SetCompactEvery(2)
		for i, want := range []int{1, 2, 0} {
			feed(h, 1)
			s := ckpt(t, h, store, p)
			if half(s) {
				t.Fatalf("fixture: checkpoint %d re-states %d of %d nodes", i, s.restated, s.nodes)
			}
			if s.deltas != want {
				t.Fatalf("checkpoint %d under a cap of 2: chain length %d, want %d", i, s.deltas, want)
			}
		}
	})
	t.Run("tiny tree", func(t *testing.T) {
		tiny := []*prog.Program{buildImplied()}
		h, store := newDurableHive(t, t.TempDir(), tiny)
		defer store.Close()
		feedFleet(t, h, tiny, 1, 1)
		if s := ckpt(t, h, store, tiny[0]); s.deltas != 0 {
			t.Fatalf("first checkpoint left %d deltas, want a base", s.deltas)
		}
		for i := uint64(2); ; i++ {
			feedFleet(t, h, tiny, 1, i)
			s := ckpt(t, h, store, tiny[0])
			if !half(s) {
				t.Fatalf("fixture: one run re-states %d of a %d-node tree", s.dirty, s.nodes)
			}
			if s.restated < chainFloor {
				if s.deltas != int(i-1) {
					t.Fatalf("chain at %d entries under the floor: chain length %d, want %d", s.restated, s.deltas, i-1)
				}
				continue
			}
			if s.deltas != 0 {
				t.Fatalf("chain at %d entries, past the floor and half the tree: %d deltas left, want a base", s.restated, s.deltas)
			}
			return
		}
	})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}
