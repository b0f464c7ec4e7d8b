package symbolic

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/exectree"
	"repro/internal/prog"
	"repro/internal/trace"
)

// SolveFrontier attempts to produce an input that drives execution along
// frontier.Prefix and then through frontier.Missing. It re-derives the path
// condition by a forced concolic run along the prefix and solves
// prefix-conditions ∧ missing-direction-condition. The returned verdict is
// SAT (input found), UNSAT (certificate: the direction is infeasible), or
// Unknown.
func (e *Engine) SolveFrontier(f exectree.Frontier) ([]int64, constraint.Verdict, error) {
	forced := make([]trace.BranchEvent, len(f.Prefix))
	for i, edge := range f.Prefix {
		forced[i] = trace.BranchEvent{ID: edge.ID, Taken: edge.Taken}
	}
	base := make([]int64, e.prog.NumInputs)
	p, err := e.RunForced(base, forced)
	if err != nil {
		return nil, constraint.Unknown, err
	}
	// Locate the decision point: the record at depth len(f.Prefix) should be
	// the frontier branch.
	if len(p.Records) <= len(f.Prefix) {
		return nil, constraint.Unknown, nil
	}
	rec := p.Records[len(f.Prefix)]
	if rec.Event.ID != f.Missing.ID {
		// Forced replay diverged (e.g. the prefix came from a different
		// syscall environment); give up rather than certify wrongly.
		return nil, constraint.Unknown, nil
	}
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
	for i := 0; i < len(f.Prefix) && i < len(p.Records); i++ {
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
	forced := make([]trace.BranchEvent, len(f.Prefix))
	for i, edge := range f.Prefix {
		forced[i] = trace.BranchEvent{ID: edge.ID, Taken: edge.Taken}
	}
	base := make([]int64, e.prog.NumInputs)
	p, err := e.RunForced(base, forced)
	if err != nil {
		return nil, nil, constraint.Unknown, err
	}
	if len(p.Records) <= len(f.Prefix) {
		return nil, nil, constraint.Unknown, nil
	}
	rec := p.Records[len(f.Prefix)]
	if rec.Event.ID != f.Missing.ID || !rec.Exact {
		return nil, nil, constraint.Unknown, nil
	}

	pc := make(constraint.PathCondition, 0, len(f.Prefix)+1)
	for i := 0; i < len(f.Prefix) && i < len(p.Records); i++ {
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
