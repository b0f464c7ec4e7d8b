package hive

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exectree"
	"repro/internal/journal"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/proof"
	"repro/internal/race"
	"repro/internal/stats"
	"repro/internal/trace"
)

// assertSameTreeBytes holds got's tree of every program to want's byte for
// byte: the full encoding, and the delta a checkpoint would write next.
func assertSameTreeBytes(t *testing.T, want, got *Hive, corpus []*prog.Program, label string) {
	t.Helper()
	for _, p := range corpus {
		wt, gt := want.liveTree(p.ID), got.liveTree(p.ID)
		if !bytes.Equal(wt.Encode(), gt.Encode()) {
			t.Errorf("%s: program %s: tree Encode bytes differ", label, p.Name)
		}
		wd, gd := wt.EncodeDelta(), gt.EncodeDelta()
		if wd == nil || !bytes.Equal(wd, gd) {
			t.Errorf("%s: program %s: EncodeDelta bytes differ (or tracking is off)", label, p.Name)
		}
	}
}

// TestPathFoldFlushAnywhere: a fold flushed at arbitrary points — a cap, a
// certificate — leaves the tree byte-identical to merging trace by trace,
// whether a path is keyed by frame bytes, by its own encoding, or by both.
func TestPathFoldFlushAnywhere(t *testing.T) {
	outcomes := []prog.Outcome{prog.OutcomeOK, prog.OutcomeOK, prog.OutcomeCrash}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([][]trace.BranchEvent, 2+rng.Intn(10))
		for i := range pool {
			pool[i] = make([]trace.BranchEvent, rng.Intn(12))
			for k := range pool[i] {
				pool[i][k] = trace.BranchEvent{ID: int32(rng.Intn(90)), Taken: rng.Intn(2) == 1}
			}
		}
		want, got := exectree.New("fold"), exectree.New("fold")
		want.SetDeltaTracking(true)
		got.SetDeltaTracking(true)
		fold := newPathFold(got)
		for i := 0; i < 400; i++ {
			path, outcome := pool[rng.Intn(len(pool))], outcomes[rng.Intn(len(outcomes))]
			want.Merge(path, outcome)
			var frame []byte
			if rng.Intn(2) == 0 {
				frame = appendPathKey([]byte{}, path)
			}
			fold.add(outcome, path, frame)
			if rng.Intn(50) == 0 {
				fold.flush()
				if fr := want.Frontiers(1); len(fr) > 0 {
					want.CertifyInfeasible(fr[0].Prefix, fr[0].Missing)
					got.CertifyInfeasible(fr[0].Prefix, fr[0].Missing)
				}
			}
		}
		fold.flush()
		if !bytes.Equal(want.Encode(), got.Encode()) || !bytes.Equal(want.EncodeDelta(), got.EncodeDelta()) {
			t.Fatalf("seed %d: folded tree differs from the trace-by-trace one", seed)
		}
	}
}

// foldFrame captures one frame of p's executions on inputs drawn from pool,
// in every capture mode by turns: full, external-only and sampled.
func foldFrame(t *testing.T, p *prog.Program, rng *stats.RNG, pool []int64, size int) []*trace.Trace {
	t.Helper()
	frame := make([]*trace.Trace, 0, size)
	for j := 0; j < size; j++ {
		input := []int64{pool[rng.Intn(len(pool))]}
		col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
		switch j % 3 {
		case 1:
			col = trace.NewCollector(p, trace.CaptureExternalOnly, 0, 1)
		case 2:
			col = trace.NewCollector(p, trace.CaptureSampled, 0.5, rng.Uint64())
		}
		m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
		if err != nil {
			t.Fatal(err)
		}
		frame = append(frame, col.Finish(fmt.Sprintf("pod-%d", j%4), uint64(j), m.Run(), input, trace.PrivacyHashed, "fleet"))
	}
	return frame
}

// TestReplayFoldMatchesLiveTree: a journal suffix full of repeats — across
// records, in every capture mode — interleaved with a certificate that
// applies where it stands, one that must wait for the end of the replay, a
// synthesis outcome and proofs, restores through Recover and through
// ImportProgram to trees byte-identical to the live hive's that wrote it:
// the same Encode bytes, and the same first post-recovery delta.
func TestReplayFoldMatchesLiveTree(t *testing.T) {
	buggy, bugs, err := proggen.Generate(proggen.Spec{
		Seed: 6001, Depth: 5, NumInputs: 1, TriggerWidth: 24,
		Bugs: []proggen.BugKind{proggen.BugCrash},
	})
	if err != nil {
		t.Fatal(err)
	}
	twoDead, implied := buildTwoDead(t), buildImplied()
	corpus := []*prog.Program{buggy, twoDead, implied}
	dir := t.TempDir()
	live, store := newDurableHive(t, dir, corpus)
	rng := stats.NewRNG(36)
	pools := map[string][]int64{}
	for _, p := range corpus {
		for i := 0; i < 6; i++ {
			pools[p.ID] = append(pools[p.ID], rng.Int63n(impliedBound))
		}
	}
	pools[twoDead.ID] = append(pools[twoDead.ID], 230) // past the outer branch
	seq := uint64(0)
	phase := func(frames int) {
		for r := 0; r < frames; r++ {
			for _, p := range corpus {
				seq++
				if _, err := submitSession(t, live, "fold", seq, p.ID, foldFrame(t, p, rng, pools[p.ID], 12)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	phase(3)
	if err := live.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	phase(3)
	pools[buggy.ID] = append(pools[buggy.ID], bugs[0].TriggerLo)
	phase(2)
	if _, err := live.Guidance(twoDead.ID, 4); err != nil {
		t.Fatal(err)
	}
	phase(2)
	pr, err := live.Prove(implied.ID, proof.PropNoCrash)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Complete || len(pr.Evidence) != 1 || pr.Certificates != 1 {
		t.Fatalf("implied program: complete=%v with %d evidence paths and %d certificates; want one certificate under one evidence path", pr.Complete, len(pr.Evidence), pr.Certificates)
	}
	phase(3)
	if err := live.DurabilityError(); err != nil {
		t.Fatal(err)
	}
	kinds := map[journal.Kind]int{}
	for _, p := range corpus {
		chain, err := store.ExportChain(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chain.Replay(p.ID, func(r journal.Receipt) error {
			kinds[r.Op().Kind]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if kinds[journal.OpSynthesis] == 0 || kinds[journal.OpProof] == 0 || journaledCerts(t, store, twoDead.ID) == 0 {
		t.Fatalf("journal suffix holds %v: want a synthesis outcome, a proof and a guidance certificate", kinds)
	}
	if st, _ := live.ProgramStats(buggy.ID); st.Reconstructed == 0 {
		t.Fatal("buggy program: no reconstructed trace; external-only capture is not exercised")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	recDir := t.TempDir()
	copyDir(t, dir, recDir)
	recovered, recStore := newDurableHive(t, recDir, corpus)
	defer recStore.Close()
	assertSameTreeBytes(t, live, recovered, corpus, "Recover")
	assertHivesEqual(t, live, recovered, corpus)

	expDir := t.TempDir()
	copyDir(t, dir, expDir)
	exp, err := journal.Open(expDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	imported := New("fleet")
	for _, p := range corpus {
		if err := imported.RegisterProgram(p); err != nil {
			t.Fatal(err)
		}
		chain, err := exp.ExportChain(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := imported.ImportProgram(chain); err != nil {
			t.Fatal(err)
		}
	}
	assertSameTreeBytes(t, live, imported, corpus, "ImportProgram")
	assertHivesEqual(t, live, imported, corpus)
}

// TestAllocsReplayScalesWithPaths: a journal that carries every frame twice
// costs a replay the allocations of the records it adds — their decode — and
// nothing a trace: the fold allocates per distinct path, and the second copy
// of a frame brings none.
func TestAllocsReplayScalesWithPaths(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	const frames, perFrame = 16, 64
	p, _, err := proggen.Generate(proggen.Spec{Seed: 7001, Depth: 6, Loops: 1, DetBranches: 8, NumInputs: 2})
	if err != nil {
		t.Fatal(err)
	}
	src, store := newDurableHive(t, t.TempDir(), []*prog.Program{p})
	rng := stats.NewRNG(5)
	for f := 0; f < frames; f++ {
		batch := make([]*trace.Trace, perFrame)
		for j := range batch {
			batch[j] = captureSeqTrace(t, p, "pod-0", uint64(f*perFrame+j), []int64{rng.Int63n(8), rng.Int63n(8)}, trace.PrivacyHashed)
		}
		if err := src.SubmitTraces(batch); err != nil {
			t.Fatal(err)
		}
	}
	once, err := store.ExportChain(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	twice := *once
	twice.WAL = append(bytes.Clone(once.WAL), once.WAL...)

	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	st, err := h.state(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(chain *journal.ChainExport) float64 {
		return testing.AllocsPerRun(5, func() {
			st.reset()
			if err := h.ImportProgram(chain); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a2 := replay(once), replay(&twice)
	// A record's decode — its op, view and pod strings — is a handful of
	// allocations; a frame's traces are perFrame.
	const perRecord = 8
	if extra := a2 - a1; extra > frames*perRecord {
		t.Fatalf("replaying every frame twice allocates %.0f more than once (%.0f vs %.0f): over %d a record, so some allocation scales with traces", extra, a2, a1, perRecord)
	}
	t.Logf("allocations: %.0f replaying every frame once, %.0f twice", a1, a2)
}
