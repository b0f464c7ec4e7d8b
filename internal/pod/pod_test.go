package pod

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/constraint"
	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/prog"
	"repro/internal/trace"
)

// fakeHive is a scriptable HiveClient. It keeps what it is sent, so it
// keeps copies: a pod recycles every batch its backend has taken.
type fakeHive struct {
	mu       sync.Mutex
	traces   []*trace.Trace
	fixes    []fix.Fix
	version  int
	cases    []guidance.TestCase
	failNext bool
}

var _ HiveClient = (*fakeHive)(nil)

var errInjected = errors.New("injected network failure")

func (f *fakeHive) SubmitTraces(traces []*trace.Trace) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failNext {
		f.failNext = false
		return errInjected
	}
	for _, tr := range traces {
		f.traces = append(f.traces, tr.Clone())
	}
	return nil
}

func (f *fakeHive) FixesSince(programID string, version int) ([]fix.Fix, int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if version >= f.version {
		return nil, f.version, nil
	}
	return f.fixes, f.version, nil
}

func (f *fakeHive) Guidance(programID string, max int) ([]guidance.TestCase, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if max > len(f.cases) {
		max = len(f.cases)
	}
	return f.cases[:max], nil
}

func buildCrashy(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("crashy-pod", 1)
	danger, end := b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpGE, 100, danger)
	b.Jmp(end)
	b.Bind(danger)
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

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := New(Config{Program: buildCrashy(t)}); err == nil {
		t.Error("empty ID accepted")
	}
}

func TestRunOnceRecordsAndBatches(t *testing.T) {
	h := &fakeHive{}
	pd, err := New(Config{Program: buildCrashy(t), ID: "p", Hive: h, BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 7; i++ {
		if _, err := pd.RunOnce([]int64{i}); err != nil {
			t.Fatal(err)
		}
	}
	// 7 runs, batch size 3: two flushes (6 traces), one pending.
	h.mu.Lock()
	got := len(h.traces)
	h.mu.Unlock()
	if got != 6 {
		t.Fatalf("uploaded = %d, want 6", got)
	}
	if err := pd.Flush(); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	got = len(h.traces)
	h.mu.Unlock()
	if got != 7 {
		t.Fatalf("after flush = %d, want 7", got)
	}
	if pd.Stats().TracesUploaded != 7 {
		t.Errorf("stats uploads = %d", pd.Stats().TracesUploaded)
	}
}

func TestFlushRequeuesOnFailure(t *testing.T) {
	h := &fakeHive{failNext: true}
	pd, err := New(Config{Program: buildCrashy(t), ID: "p", Hive: h, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd.RunOnce([]int64{1}); err != nil {
		t.Fatal(err)
	}
	if err := pd.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("flush err = %v", err)
	}
	// The trace must survive the failure and ship on retry.
	if err := pd.Flush(); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.traces) != 1 {
		t.Fatalf("traces after retry = %d, want 1", len(h.traces))
	}
}

func TestInputGuardApplied(t *testing.T) {
	h := &fakeHive{version: 1, fixes: []fix.Fix{{
		ID: 1, Kind: fix.KindInputGuard,
		Guard: &fix.InputGuard{
			Danger:    fix.TermsFromCondition(dangerCond()),
			SafeInput: []int64{5},
		},
	}}}
	pd, err := New(Config{Program: buildCrashy(t), ID: "p", Hive: h})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-fix: crash.
	res, err := pd.RunOnce([]int64{105})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != prog.OutcomeCrash {
		t.Fatalf("pre-fix outcome = %v", res.Outcome)
	}
	if err := pd.SyncFixes(); err != nil {
		t.Fatal(err)
	}
	if pd.Stats().FixVersion != 1 {
		t.Fatalf("fix version = %d", pd.Stats().FixVersion)
	}
	res2, err := pd.RunOnce([]int64{105})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome != prog.OutcomeOK {
		t.Fatalf("post-fix outcome = %v", res2.Outcome)
	}
	st := pd.Stats()
	if st.GuardedRuns != 1 || st.FailuresAverted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGuidedRunWithFaults(t *testing.T) {
	// Program crashes when syscall 7 returns > 50.
	b := prog.NewBuilder("envdep", 0)
	bad, end := b.NewLabel(), b.NewLabel()
	b.Syscall(0, 7, 1)
	b.BrImm(0, prog.CmpGT, 50, bad)
	b.Jmp(end)
	b.Bind(bad)
	b.Const(1, 0)
	b.Div(2, 1, 1)
	b.Bind(end)
	b.Halt()
	p := b.MustBuild()

	h := &fakeHive{cases: []guidance.TestCase{{
		ProgramID: p.ID,
		Input:     []int64{},
		Faults:    []prog.FaultSpec{{Sysno: 7, CallIndex: -1, Return: 99}},
	}}}
	pd, err := New(Config{Program: p, ID: "p", Hive: h})
	if err != nil {
		t.Fatal(err)
	}
	n, err := pd.PullGuidance(5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("executed %d cases", n)
	}
	st := pd.Stats()
	if st.GuidedRuns != 1 || st.Failures != 1 {
		t.Errorf("stats = %+v (fault injection should have crashed)", st)
	}
}

func TestGuidedRunRejectsWrongProgram(t *testing.T) {
	pd, err := New(Config{Program: buildCrashy(t), ID: "p"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = pd.RunGuided(guidance.TestCase{ProgramID: "other"})
	if err == nil {
		t.Fatal("wrong-program test case accepted")
	}
}

func TestDarkPodDropsTraces(t *testing.T) {
	pd, err := New(Config{Program: buildCrashy(t), ID: "dark", BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if _, err := pd.RunOnce([]int64{i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pd.Flush(); err != nil {
		t.Fatal(err)
	}
	if pd.Stats().TracesUploaded != 0 {
		t.Error("dark pod uploaded traces")
	}
}

// dangerCond is the crash zone of buildCrashy: 100 <= x0 <= 109.
func dangerCond() constraint.PathCondition {
	return constraint.PathCondition{
		constraint.NewConstraint(constraint.Var(0), prog.CmpGE, constraint.Const(100)),
		constraint.NewConstraint(constraint.Var(0), prog.CmpLE, constraint.Const(109)),
	}
}
