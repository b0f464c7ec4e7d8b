package symbolic

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/exectree"
	"repro/internal/prog"
	"repro/internal/trace"
)

// buildGuarded returns:
//
//	x = input[0]
//	if x > 100 {            // branch 0
//	    if x < 110 { crash } // branch 1: 100 < x < 110 crashes
//	}
func buildGuarded(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("guarded", 1)
	outer, end := b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpGT, 100, outer)
	b.Jmp(end)
	b.Bind(outer)
	inner := b.NewLabel()
	b.BrImm(0, prog.CmpLT, 110, inner)
	b.Jmp(end)
	b.Bind(inner)
	b.Const(1, 0)
	b.Div(2, 1, 1) // 0/0: crash
	b.Bind(end)
	b.Halt()
	return b.MustBuild()
}

func newEngine(t *testing.T, p *prog.Program) *Engine {
	t.Helper()
	e, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// flip asks SolveFrontier for an input that follows path's decisions up to
// record k and then goes the other way at k.
func flip(e *Engine, path *Path, k int) ([]int64, constraint.Verdict, error) {
	prefix := make([]exectree.Edge, k)
	for i, r := range path.Records[:k] {
		prefix[i] = exectree.Edge{ID: r.Event.ID, Taken: r.Event.Taken}
	}
	ev := path.Records[k].Event
	return e.SolveFrontier(exectree.Frontier{Prefix: prefix, Missing: exectree.Edge{ID: ev.ID, Taken: !ev.Taken}})
}

func TestRunCollectsConstraints(t *testing.T) {
	p := buildGuarded(t)
	e := newEngine(t, p)
	path, err := e.Run([]int64{50})
	if err != nil {
		t.Fatal(err)
	}
	if path.Outcome != prog.OutcomeOK {
		t.Fatalf("outcome = %v", path.Outcome)
	}
	if len(path.Records) != 1 {
		t.Fatalf("records = %d, want 1", len(path.Records))
	}
	// The not-taken constraint must hold for input 50 and fail for 150.
	cond := path.Condition()
	if !cond.Holds(map[int]int64{0: 50}) {
		t.Error("condition should hold for the concrete input")
	}
	if cond.Holds(map[int]int64{0: 150}) {
		t.Error("condition should exclude the other side")
	}
}

func TestFlipFindsCrashInput(t *testing.T) {
	p := buildGuarded(t)
	e := newEngine(t, p)
	path, err := e.Run([]int64{50})
	if err != nil {
		t.Fatal(err)
	}
	input, verdict, err := flip(e, path, 0)
	if err != nil || verdict != constraint.SAT {
		t.Fatalf("flip: verdict=%v err=%v", verdict, err)
	}
	if input[0] <= 100 {
		t.Fatalf("flipped input = %d, want > 100", input[0])
	}
	// Following the flip leads to branch 1.
	path2, err := e.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(path2.Records) != 2 {
		t.Fatalf("records after flip = %d, want 2", len(path2.Records))
	}
}

func TestDeterministicBranchCertifiedImmediately(t *testing.T) {
	// r1 = 3; if r1 == 3 {...}: the not-taken side is structurally dead.
	b := prog.NewBuilder("det", 1)
	end := b.NewLabel()
	b.Const(1, 3)
	b.BrImm(1, prog.CmpEQ, 3, end)
	b.Assert(1, 9) // dead code (r1 != 0 anyway)
	b.Bind(end)
	b.Halt()
	p := b.MustBuild()

	e := newEngine(t, p)
	_, verdict, err := e.SolveFrontier(exectree.Frontier{Missing: exectree.Edge{ID: 0, Taken: false}})
	if err != nil {
		t.Fatal(err)
	}
	if verdict != constraint.UNSAT {
		t.Fatalf("dead side verdict = %v, want unsat", verdict)
	}
}

func TestSolveFrontier(t *testing.T) {
	p := buildGuarded(t)
	e := newEngine(t, p)

	// Frontier: at the root, branch 0 taken-side unexplored.
	input, verdict, err := e.SolveFrontier(exectree.Frontier{
		Missing: exectree.Edge{ID: 0, Taken: true},
	})
	if err != nil || verdict != constraint.SAT {
		t.Fatalf("verdict=%v err=%v", verdict, err)
	}
	if input[0] <= 100 {
		t.Fatalf("input = %v, want x>100", input)
	}

	// Frontier: after taking branch 0 with x>100... the branch-1 taken side
	// needs 100<x<110.
	prefix := []exectree.Edge{{ID: 0, Taken: true}}
	input2, verdict2, err := e.SolveFrontier(exectree.Frontier{
		Prefix:  prefix,
		Missing: exectree.Edge{ID: 1, Taken: true},
	})
	if err != nil || verdict2 != constraint.SAT {
		t.Fatalf("inner: verdict=%v err=%v", verdict2, err)
	}
	if input2[0] <= 100 || input2[0] >= 110 {
		t.Fatalf("inner input = %v, want 100<x<110", input2)
	}
}

func TestSolveFrontierUNSAT(t *testing.T) {
	// if x > 200 { if x < 100 {...} }: inner taken is infeasible.
	b := prog.NewBuilder("unsatf", 1)
	outer, end := b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpGT, 200, outer)
	b.Jmp(end)
	b.Bind(outer)
	inner := b.NewLabel()
	b.BrImm(0, prog.CmpLT, 100, inner)
	b.Bind(inner)
	b.Bind(end)
	b.Halt()
	p := b.MustBuild()

	e := newEngine(t, p)
	_, verdict, err := e.SolveFrontier(exectree.Frontier{
		Prefix:  []exectree.Edge{{ID: 0, Taken: true}},
		Missing: exectree.Edge{ID: 1, Taken: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if verdict != constraint.UNSAT {
		t.Fatalf("verdict = %v, want unsat", verdict)
	}
}

func TestSymbolicSyscallsRelaxedConsistency(t *testing.T) {
	// if syscall() > 50 { crash }: only reachable via environment control.
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

	// With symbolic syscalls, the branch condition is exact over a fresh
	// variable, so the solver can choose the environment.
	e, err := New(p, Config{SymbolicSyscalls: true, Syscalls: &prog.ScriptedSyscalls{Returns: []int64{10}}})
	if err != nil {
		t.Fatal(err)
	}
	path, err := e.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if path.Outcome != prog.OutcomeOK || len(path.Records) != 1 {
		t.Fatalf("path = %+v", path)
	}
	if !path.Records[0].Exact {
		t.Fatal("syscall-dependent condition should be exact under relaxed consistency")
	}
	if path.FreshVars != 1 {
		t.Fatalf("fresh vars = %d, want 1", path.FreshVars)
	}
	// Solve for the environment that reaches the crash.
	pc := constraint.PathCondition{path.Records[0].Cond.Negate()}
	res := (&constraint.Solver{}).Solve(pc)
	if res.Verdict != constraint.SAT {
		t.Fatalf("env solve verdict = %v", res.Verdict)
	}
	envVal := res.Model[p.NumInputs] // fresh var index
	if envVal <= 50 {
		t.Fatalf("solved env value = %d, want > 50", envVal)
	}
	// Confirm by injecting the fault.
	inj := &prog.FaultInjector{Base: &prog.DeterministicSyscalls{}, Faults: []prog.FaultSpec{{Sysno: 7, CallIndex: -1, Return: envVal}}}
	m, err := prog.NewMachine(p, prog.Config{Input: nil, Syscalls: inj})
	if err != nil {
		t.Fatal(err)
	}
	if out := m.Run(); out.Outcome != prog.OutcomeCrash {
		t.Fatalf("injected run outcome = %v, want crash", out.Outcome)
	}
}

func TestMultiplicationConcretizes(t *testing.T) {
	// x*y is nonlinear: the branch condition must be marked inexact.
	b := prog.NewBuilder("nonlin", 2)
	end := b.NewLabel()
	b.Input(0, 0)
	b.Input(1, 1)
	b.Mul(2, 0, 1)
	b.BrImm(2, prog.CmpGT, 10, end)
	b.Bind(end)
	b.Halt()
	p := b.MustBuild()

	e := newEngine(t, p)
	path, err := e.Run([]int64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Records) != 1 || path.Records[0].Exact {
		t.Fatalf("nonlinear condition should be inexact: %+v", path.Records)
	}
	// Const*var stays linear.
	b2 := prog.NewBuilder("lin", 1)
	end2 := b2.NewLabel()
	b2.Input(0, 0)
	b2.Const(1, 3)
	b2.Mul(2, 0, 1)
	b2.BrImm(2, prog.CmpGT, 10, end2)
	b2.Bind(end2)
	b2.Halt()
	p2 := b2.MustBuild()
	e2 := newEngine(t, p2)
	path2, err := e2.Run([]int64{5})
	if err != nil {
		t.Fatal(err)
	}
	if !path2.Records[0].Exact {
		t.Fatal("const*var should stay exact")
	}
}

func TestSymbolicMemory(t *testing.T) {
	// Store input to memory, load it back, branch on it: must stay exact.
	b := prog.NewBuilder("mem", 1).SetMem(4)
	end := b.NewLabel()
	b.Input(0, 0)
	b.Store(2, 0)
	b.Load(1, 2)
	b.BrImm(1, prog.CmpGT, 7, end)
	b.Bind(end)
	b.Halt()
	p := b.MustBuild()

	e := newEngine(t, p)
	path, err := e.Run([]int64{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Records) != 1 || !path.Records[0].Exact {
		t.Fatalf("memory round-trip lost symbolic info: %+v", path.Records)
	}
	input, verdict, err := flip(e, path, 0)
	if err != nil || verdict != constraint.SAT {
		t.Fatalf("flip via memory: %v/%v", verdict, err)
	}
	if input[0] <= 7 {
		t.Fatalf("flipped input = %v", input)
	}
}

func TestEngineRejectsMultiThreaded(t *testing.T) {
	b := prog.NewBuilder("mt", 0)
	b.Thread()
	b.Halt()
	b.Thread()
	b.Halt()
	p := b.MustBuild()
	if _, err := New(p, Config{}); err == nil {
		t.Fatal("want error for multi-threaded program")
	}
}

func TestForcedRunFollowsPrefix(t *testing.T) {
	p := buildGuarded(t)
	e := newEngine(t, p)
	forced := []trace.BranchEvent{{ID: 0, Taken: true}, {ID: 1, Taken: true}}
	path, err := e.RunForced([]int64{0}, forced)
	if err != nil {
		t.Fatal(err)
	}
	// Forced down the crash path despite input 0.
	if path.Outcome != prog.OutcomeCrash {
		t.Fatalf("outcome = %v, want crash (forced)", path.Outcome)
	}
}
