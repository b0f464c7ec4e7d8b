package hive

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/exectree"
	"repro/internal/fix"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/proof"
	"repro/internal/stats"
	"repro/internal/trace"
)

// compile-time check: the hive satisfies the pod's client interface.
var _ pod.HiveClient = (*Hive)(nil)

// buildCrashy returns a program crashing for input in [100, 110).
func buildCrashy(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("crashy", 1)
	hi, end := b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpGE, 100, hi)
	b.Jmp(end)
	b.Bind(hi)
	inner := b.NewLabel()
	b.BrImm(0, prog.CmpLT, 110, inner)
	b.Jmp(end)
	b.Bind(inner)
	b.Const(1, 0)
	b.Div(2, 1, 1)
	b.Bind(end)
	b.Halt()
	return b.MustBuild()
}

func newPod(t *testing.T, h *Hive, p *prog.Program, id string, privacy trace.PrivacyLevel) *pod.Pod {
	t.Helper()
	pd, err := pod.New(pod.Config{
		Program:   p,
		ID:        id,
		Hive:      h,
		Privacy:   privacy,
		Salt:      "fleet",
		Seed:      uint64(len(id)) * 7,
		BatchSize: 1, // flush every run for test determinism
	})
	if err != nil {
		t.Fatal(err)
	}
	return pd
}

func TestIngestUnknownProgram(t *testing.T) {
	h := New("fleet")
	err := h.SubmitTraces([]*trace.Trace{{ProgramID: "nope"}})
	if !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("err = %v, want ErrUnknownProgram", err)
	}
}

func TestEndToEndCrashFixLoop(t *testing.T) {
	p := buildCrashy(t)
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	pd := newPod(t, h, p, "pod-0", trace.PrivacyHashed)

	// Benign runs populate the tree (and known-good knowledge).
	for v := int64(0); v < 20; v++ {
		if _, err := pd.RunOnce([]int64{v}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 20 || st.FixCount != 0 {
		t.Fatalf("after benign runs: %+v", st)
	}

	// A user hits the crash; the hive synthesizes a validated input guard.
	res, err := pd.RunOnce([]int64{105})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != prog.OutcomeCrash {
		t.Fatalf("trigger run outcome = %v, want crash", res.Outcome)
	}
	st, _ = h.ProgramStats(p.ID)
	if st.FixCount != 1 {
		t.Fatalf("fixes = %d, want 1 (records: %+v)", st.FixCount, st.Failures)
	}
	if len(st.Failures) != 1 || !st.Failures[0].Fixed {
		t.Fatalf("failure records = %+v", st.Failures)
	}

	// The pod pulls the fix; the same dangerous input no longer crashes.
	if err := pd.SyncFixes(); err != nil {
		t.Fatal(err)
	}
	res2, err := pd.RunOnce([]int64{105})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome != prog.OutcomeOK {
		t.Fatalf("post-fix outcome = %v, want ok", res2.Outcome)
	}
	ps := pd.Stats()
	if ps.FailuresAverted != 1 {
		t.Fatalf("pod stats = %+v, want 1 averted failure", ps)
	}
}

func TestEndToEndDeadlockImmunityLoop(t *testing.T) {
	b := prog.NewBuilder("dining", 0).SetLocks(2)
	b.Thread()
	b.Lock(0).Yield().Lock(1).Unlock(1).Unlock(0).Halt()
	b.Thread()
	b.Lock(1).Yield().Lock(0).Unlock(0).Unlock(1).Halt()
	p := b.MustBuild()

	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}

	// A fleet of pods with different schedule seeds; some will deadlock.
	pods := make([]*pod.Pod, 20)
	for i := range pods {
		pd, err := pod.New(pod.Config{
			Program: p, ID: "pod-" + string(rune('a'+i)), Hive: h,
			Seed: uint64(i), Preempt: 0.8, BatchSize: 1, Salt: "fleet",
		})
		if err != nil {
			t.Fatal(err)
		}
		pods[i] = pd
	}

	deadlocks := 0
	for _, pd := range pods {
		for r := 0; r < 10; r++ {
			res, err := pd.RunOnce(nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome == prog.OutcomeDeadlock {
				deadlocks++
			}
		}
	}
	if deadlocks == 0 {
		t.Fatal("fleet never deadlocked; test vacuous")
	}
	st, _ := h.ProgramStats(p.ID)
	if st.FixCount == 0 {
		t.Fatalf("no immunity fix minted; stats %+v", st)
	}

	// All pods sync; no more deadlocks on any schedule.
	after := 0
	for _, pd := range pods {
		if err := pd.SyncFixes(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 10; r++ {
			res, err := pd.RunOnce(nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome == prog.OutcomeDeadlock {
				after++
			}
		}
	}
	if after != 0 {
		t.Fatalf("immunized fleet deadlocked %d times", after)
	}
}

func TestGuidanceClosesCoverageGaps(t *testing.T) {
	p := buildCrashy(t)
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	pd := newPod(t, h, p, "pod-g", trace.PrivacyHashed)

	// Natural runs never exceed input 50: branch 0's taken side stays dark.
	for v := int64(0); v < 50; v++ {
		if _, err := pd.RunOnce([]int64{v}); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := h.Tree(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := tree.EdgeCoverage(p)

	// Guidance steers into the gap (which contains the crash).
	n, err := pd.PullGuidance(8)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("hive issued no guidance despite open frontiers")
	}
	after, total := tree.EdgeCoverage(p)
	if after <= before {
		t.Fatalf("coverage did not grow: %d -> %d of %d", before, after, total)
	}
	// Guided runs found the crash; a fix exists now.
	st, _ := h.ProgramStats(p.ID)
	if st.FixCount == 0 {
		t.Fatalf("guided exploration missed the crash: %+v", st)
	}
}

func TestProveAfterFullCoverage(t *testing.T) {
	// A bug-free program: if x > 100 then y=1 else y=2; always halts OK.
	b := prog.NewBuilder("clean", 1)
	hi, end := b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpGT, 100, hi)
	b.Const(1, 2)
	b.Jmp(end)
	b.Bind(hi)
	b.Const(1, 1)
	b.Bind(end)
	b.Halt()
	p := b.MustBuild()

	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	pd := newPod(t, h, p, "pod-p", trace.PrivacyHashed)
	if _, err := pd.RunOnce([]int64{5}); err != nil {
		t.Fatal(err)
	}

	pr, err := h.Prove(p.ID, proof.PropAllOK)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Complete || !pr.Holds {
		t.Fatalf("proof = %+v (%s)", pr, pr.Statement())
	}
	if pr.NewEvidence == 0 {
		t.Error("prover should have synthesized the missing side itself")
	}

	// Cached on second call (same epoch).
	pr2, err := h.Prove(p.ID, proof.PropAllOK)
	if err != nil {
		t.Fatal(err)
	}
	if pr2 != pr {
		t.Error("expected cached proof at unchanged epoch")
	}
}

func TestProofRefutedThenFixedThenReproved(t *testing.T) {
	p := buildCrashy(t)
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	pd := newPod(t, h, p, "pod-r", trace.PrivacyHashed)
	if _, err := pd.RunOnce([]int64{5}); err != nil {
		t.Fatal(err)
	}

	// The prover completes the tree and finds the crash: REFUTED, and the
	// crash evidence lands in the tree.
	pr, err := h.Prove(p.ID, proof.PropNoCrash)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Holds {
		t.Fatalf("proof should be refuted: %s", pr.Statement())
	}
	if len(pr.CounterExamples) == 0 {
		t.Fatal("no counterexamples")
	}
}

func TestRepairLabForUnfixableFailures(t *testing.T) {
	// A hang bug: no automated fix kind exists; must land in the repair lab.
	p, bugs := proggen.MustGenerate(proggen.Spec{
		Seed: 3, Depth: 2, Bugs: []proggen.BugKind{proggen.BugHang},
	})
	if len(bugs) != 1 || bugs[0].Kind != proggen.BugHang {
		t.Fatalf("ground truth = %+v", bugs)
	}
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	pd, err := pod.New(pod.Config{
		Program: p, ID: "pod-h", Hive: h, BatchSize: 1, Salt: "fleet",
		MaxSteps: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pd.RunOnce([]int64{bugs[0].TriggerLo})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != prog.OutcomeHang {
		t.Fatalf("outcome = %v, want hang (trigger %+v)", res.Outcome, bugs[0])
	}
	st, _ := h.ProgramStats(p.ID)
	if st.RepairLab != 1 {
		t.Fatalf("repair lab = %d, want 1: %+v", st.RepairLab, st.Failures)
	}
}

func TestFixValidationRejectsOverbroadGuard(t *testing.T) {
	// Known-good inputs inside the would-be danger zone block the guard.
	p := buildCrashy(t)
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	// Raw-privacy pod: the hive learns known-good inputs.
	pd := newPod(t, h, p, "pod-v", trace.PrivacyRaw)
	for v := int64(0); v < 120; v++ {
		if v >= 100 && v < 110 {
			continue // skip the crash zone for now
		}
		if _, err := pd.RunOnce([]int64{v}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: the synthesized guard covers exactly (100..110), which contains
	// no known-good input, so it must validate.
	if _, err := pd.RunOnce([]int64{105}); err != nil {
		t.Fatal(err)
	}
	st, _ := h.ProgramStats(p.ID)
	if st.FixCount != 1 {
		t.Fatalf("fix count = %d: %+v", st.FixCount, st.Failures)
	}
	fixes, _, err := h.FixesSince(p.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	guard := fixes[0].Guard
	if guard == nil {
		t.Fatal("expected input guard")
	}
	// The guard matches the crash zone and nothing known-good.
	if !guard.Matches([]int64{105}) {
		t.Error("guard misses the crash input")
	}
	if guard.Matches([]int64{50}) || guard.Matches([]int64{150}) {
		t.Error("guard over-matches safe inputs")
	}
}

func TestFixesSinceVersioning(t *testing.T) {
	p := buildCrashy(t)
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	pd := newPod(t, h, p, "pod-s", trace.PrivacyHashed)
	if _, err := pd.RunOnce([]int64{105}); err != nil {
		t.Fatal(err)
	}
	fixes, v1, err := h.FixesSince(p.ID, 0)
	if err != nil || len(fixes) != 1 || v1 != 1 {
		t.Fatalf("fixes=%d v=%d err=%v", len(fixes), v1, err)
	}
	fixes2, v2, err := h.FixesSince(p.ID, v1)
	if err != nil || len(fixes2) != 0 || v2 != v1 {
		t.Fatalf("incremental fixes=%d v=%d err=%v", len(fixes2), v2, err)
	}
}

var _ = fix.Fix{} // keep the import when the test set shrinks

func TestConcurrentGuidanceRequests(t *testing.T) {
	// Schedule guidance mutates enumerator state; concurrent pod requests
	// must be safe and return disjoint schedules.
	b := prog.NewBuilder("mt-conc", 0).SetLocks(2)
	b.Thread()
	b.Lock(0).Lock(1).Unlock(1).Unlock(0).Halt()
	b.Thread()
	b.Lock(0).Lock(1).Unlock(1).Unlock(0).Halt()
	p := b.MustBuild()

	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make(chan int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cases, err := h.Guidance(p.ID, 3)
			if err != nil {
				results <- -1
				return
			}
			results <- len(cases)
		}()
	}
	wg.Wait()
	close(results)
	for n := range results {
		if n < 0 {
			t.Fatal("concurrent guidance errored")
		}
	}
}

func TestCoordinatedSamplingNarrowsInHive(t *testing.T) {
	// Loop-free program so every site decides once per run.
	b := prog.NewBuilder("coord", 1)
	for i := 0; i < 5; i++ {
		skip := b.NewLabel()
		b.Input(0, 0)
		b.BrImm(0, prog.CmpGT, int64(40*i+20), skip)
		b.AddImm(1, 1, 1)
		b.Bind(skip)
	}
	b.Halt()
	p := b.MustBuild()

	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}

	// Reference tree from one full-capture run of input 99.
	ref := exectree.New(p.ID)
	colRef := trace.NewCollector(p, trace.CaptureFull, 0, 1)
	m, err := prog.NewMachine(p, prog.Config{Input: []int64{99}, Observer: colRef})
	if err != nil {
		t.Fatal(err)
	}
	resRef := m.Run()
	refTrace := colRef.Finish("ref", 0, resRef, []int64{99}, trace.PrivacyHashed, "fleet")
	ref.Merge(refTrace.Branches, refTrace.Outcome)

	// Three coordinated pods observe the same execution; each ships a
	// fragment. The hive must end with the same tree as full capture.
	const k = 3
	for phase := uint32(0); phase < k; phase++ {
		col := trace.NewCoordinatedCollector(p, phase, k)
		m, err := prog.NewMachine(p, prog.Config{Input: []int64{99}, Observer: col})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		tr := col.Finish(fmt.Sprintf("pod-%d", phase), 0, res, []int64{99}, trace.PrivacyHashed, "fleet")
		if err := h.SubmitTraces([]*trace.Trace{tr}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Narrowed != 1 {
		t.Fatalf("narrowed = %d, want 1", st.Narrowed)
	}
	// The narrowed merge must contain the full path: the hive tree's node
	// count is at least the reference tree's (fragments add partial paths
	// besides the narrowed one).
	tree, _ := h.Tree(p.ID)
	if tree.Stats().Nodes < ref.Stats().Nodes {
		t.Fatalf("hive tree %d nodes < reference %d — full path missing",
			tree.Stats().Nodes, ref.Stats().Nodes)
	}
}

func TestPublishedProofsInvalidatedByFixes(t *testing.T) {
	p := buildCrashy(t)
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	pd := newPod(t, h, p, "pod-pub", trace.PrivacyHashed)
	if _, err := pd.RunOnce([]int64{5}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Prove(p.ID, proof.PropNoAssertFail); err != nil {
		t.Fatal(err)
	}
	pubs, err := h.PublishedProofs(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(pubs) != 1 || !pubs[0].Holds {
		t.Fatalf("published = %+v", pubs)
	}

	// A new fix bumps the epoch and unpublishes standing proofs.
	if _, err := pd.RunOnce([]int64{105}); err != nil { // mints a fix
		t.Fatal(err)
	}
	pubs2, err := h.PublishedProofs(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(pubs2) != 0 {
		t.Fatalf("stale proofs still published after fix: %+v", pubs2)
	}
}

func TestProveNoDeadlockVerifiesDistributedFix(t *testing.T) {
	b := prog.NewBuilder("dining-v", 0).SetLocks(2)
	b.Thread()
	b.Lock(0).Yield().Lock(1).Unlock(1).Unlock(0).Halt()
	b.Thread()
	b.Lock(1).Yield().Lock(0).Unlock(0).Unlock(1).Halt()
	p := b.MustBuild()

	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}

	// Without any fix, the bounded proof must refute.
	pr, err := h.ProveNoDeadlock(p.ID, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Holds {
		t.Fatalf("raw program proven deadlock-free: %s", pr.Statement())
	}

	// A pod reports the deadlock; the hive mints the immunity fix.
	pd, err := pod.New(pod.Config{Program: p, ID: "pod-v", Hive: h, Seed: 3, Preempt: 0.9, BatchSize: 1, Salt: "fleet"})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 50; r++ {
		if _, err := pd.RunOnce(nil); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := h.ProgramStats(p.ID)
	if st.FixCount == 0 {
		t.Fatal("no immunity fix minted")
	}

	// With the fix installed, the same bounded space is exhaustively clean.
	pr2, err := h.ProveNoDeadlock(p.ID, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !pr2.Holds || !pr2.Complete {
		t.Fatalf("fixed program not proven: %s", pr2.Statement())
	}
}

// TestResentCrashAtAnotherSiteMintsNoFix: a crash re-sent with its fault PC
// moved past the real site carries a signature the program does not have.
// The forced replay of its branches fails at the real site, so synthesis
// mints no guard for it: the fix count stays at the one the real crash
// minted.
func TestResentCrashAtAnotherSiteMintsNoFix(t *testing.T) {
	p := recoveryCorpus(t, 3)[0]
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	var crash *trace.Trace
	rng := stats.NewRNG(3)
	for i := 0; crash == nil; i++ {
		if i == 5000 {
			t.Fatal("fixture: no input crashes the program")
		}
		tr := captureSeqTrace(t, p, "pod-0", uint64(i), []int64{rng.Int63n(impliedBound), rng.Int63n(impliedBound)}, trace.PrivacyHashed)
		if tr.Outcome == prog.OutcomeCrash {
			crash = tr
		}
	}
	fixes := func() int {
		st, err := h.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		return st.FixCount
	}
	if err := h.SubmitTraces([]*trace.Trace{crash.Clone()}); err != nil {
		t.Fatal(err)
	}
	if n := fixes(); n != 1 {
		t.Fatalf("the crash minted %d fixes; want 1", n)
	}
	moved := crash.Clone()
	moved.FaultPC += 1000
	moved.Seq++
	if moved.FailureSignature() == crash.FailureSignature() {
		t.Fatal("fixture: moving the fault PC kept the signature")
	}
	if err := h.SubmitTraces([]*trace.Trace{moved}); err != nil {
		t.Fatal(err)
	}
	if n := fixes(); n != 1 {
		t.Fatalf("the crash re-sent at PC %d minted a fix of its own: %d fixes; want 1", moved.FaultPC, n)
	}
}
