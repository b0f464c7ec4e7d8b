package symbolic

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/exectree"
	"repro/internal/prog"
	"repro/internal/trace"
)

// replayPrefix runs the engine along f.Prefix from the zero input and returns
// the path it took, the frontier's record at index len(f.Prefix). RunForced
// takes its forced list to hold only input-dependent decisions — a
// deterministic branch decides itself and consumes no entry — so the prefix
// is filtered the way synthesizeInputGuard filters a trace. ok is false unless the run
// took every edge of the prefix, deterministic ones included, and then
// reached the frontier's branch: a run that left the prefix anywhere is not
// evidence about the frontier, whatever it reaches later.
func (e *Engine) replayPrefix(f exectree.Frontier) (p *Path, ok bool, err error) {
	forced := make([]trace.BranchEvent, 0, len(f.Prefix))
	for _, edge := range f.Prefix {
		if e.prog.InputDependent(int(edge.ID)) {
			forced = append(forced, trace.BranchEvent{ID: edge.ID, Taken: edge.Taken})
		}
	}
	p, err = e.RunForced(make([]int64, e.prog.NumInputs), forced)
	if err != nil || len(p.Records) <= len(f.Prefix) {
		return p, false, err
	}
	for i, edge := range f.Prefix {
		if ev := p.Records[i].Event; ev.ID != edge.ID || ev.Taken != edge.Taken {
			return p, false, nil
		}
	}
	return p, p.Records[len(f.Prefix)].Event.ID == f.Missing.ID, nil
}

// SolveFrontier attempts to produce an input that drives execution along
// frontier.Prefix and then through frontier.Missing. It re-derives the path
// condition by a forced concolic run along the prefix and solves
// prefix-conditions ∧ missing-direction-condition. The returned verdict is
// SAT (input found), UNSAT (certificate: the direction is infeasible), or
// Unknown — always Unknown when the forced run leaves the prefix or does not
// reach the frontier (the prefix came from a different syscall environment,
// say): no verdict is drawn from a run that was not on the prefix.
func (e *Engine) SolveFrontier(f exectree.Frontier) ([]int64, constraint.Verdict, error) {
	p, ok, err := e.replayPrefix(f)
	if err != nil || !ok {
		return nil, constraint.Unknown, err
	}
	rec := p.Records[len(f.Prefix)]
	if !e.prog.InputDependent(int(f.Missing.ID)) {
		// Deterministic branch: missing direction is infeasible iff the
		// natural direction differs.
		if rec.Event.Taken != f.Missing.Taken {
			return nil, constraint.UNSAT, nil
		}
		return p.Input, constraint.SAT, nil
	}
	if !rec.Exact {
		return nil, constraint.Unknown, nil
	}

	pc := make(constraint.PathCondition, 0, len(f.Prefix)+1)
	for i := 0; i < len(f.Prefix); i++ {
		if p.Records[i].Exact {
			pc = append(pc, p.Records[i].Cond)
		}
	}
	target := rec.Cond
	if rec.Event.Taken != f.Missing.Taken {
		target = target.Negate()
	}
	pc = append(pc, target)
	sres := (&constraint.Solver{}).Solve(pc)
	if sres.Verdict != constraint.SAT {
		return nil, sres.Verdict, nil
	}
	return e.modelToInput(sres.Model, p.Input), constraint.SAT, nil
}

// SolveFrontierEnv is SolveFrontier under relaxed consistency: the engine
// must have been created with SymbolicSyscalls, so syscall returns are fresh
// variables the solver may choose. A SAT answer yields both an input and the
// fault-injection specs that realize the solved environment — the paper's
// §3.3 "test cases ... stated in terms of system call faults to be
// injected". Returns of syscalls the solver left unconstrained keep their
// natural value (no fault injected).
func (e *Engine) SolveFrontierEnv(f exectree.Frontier) ([]int64, []prog.FaultSpec, constraint.Verdict, error) {
	if !e.cfg.SymbolicSyscalls {
		return nil, nil, constraint.Unknown, fmt.Errorf("%w: engine not in relaxed-consistency mode", ErrUnsupported)
	}
	p, ok, err := e.replayPrefix(f)
	if err != nil || !ok {
		return nil, nil, constraint.Unknown, err
	}
	rec := p.Records[len(f.Prefix)]
	if !rec.Exact {
		return nil, nil, constraint.Unknown, nil
	}

	pc := make(constraint.PathCondition, 0, len(f.Prefix)+1)
	for i := 0; i < len(f.Prefix); i++ {
		if p.Records[i].Exact {
			pc = append(pc, p.Records[i].Cond)
		}
	}
	target := rec.Cond
	if rec.Event.Taken != f.Missing.Taken {
		target = target.Negate()
	}
	pc = append(pc, target)
	sres := (&constraint.Solver{}).Solve(pc)
	if sres.Verdict != constraint.SAT {
		return nil, nil, sres.Verdict, nil
	}

	input := e.modelToInput(sres.Model, p.Input)
	var faults []prog.FaultSpec
	for i := 0; i < p.FreshVars && i < len(p.SyscallNums); i++ {
		varIdx := e.prog.NumInputs + i
		val, constrained := sres.Model[varIdx]
		if !constrained {
			continue // natural return suffices
		}
		faults = append(faults, prog.FaultSpec{
			Sysno:     p.SyscallNums[i],
			CallIndex: i,
			Return:    val,
		})
	}
	return input, faults, constraint.SAT, nil
}
