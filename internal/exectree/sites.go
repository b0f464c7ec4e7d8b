package exectree

import (
	"fmt"

	"repro/internal/prog"
	"repro/internal/trace"
)

// ReconstructFromSites expands per-site branch directions (the narrowed
// family produced by trace.CombineCoordinated) into a full execution path,
// by replaying the program with a site oracle: every branch takes the
// direction recorded for its site. It is sound for executions in which each
// site decided at most once (CombineCoordinated rejects the rest), and for
// single-threaded programs. Syscall returns replay from any member trace of
// the family, and steps is that trace's recorded step count: like
// Reconstruct, the replay's fuel is derived from it and clamped.
func ReconstructFromSites(p *prog.Program, sites trace.SiteDirections, syscalls []int64, steps int64) ([]trace.BranchEvent, prog.Outcome, error) {
	if p.NumThreads() > 1 {
		return nil, 0, fmt.Errorf("%w: program %q is multi-threaded", ErrReconstruct, p.Name)
	}
	var (
		full      []trace.BranchEvent
		oracleErr error
	)
	collector := observerFunc(func(id int, taken bool) {
		full = append(full, trace.BranchEvent{ID: int32(id), Taken: taken})
	})
	cfg := prog.Config{
		Input:    make([]int64, p.NumInputs),
		Syscalls: &prog.ScriptedSyscalls{Returns: syscalls},
		Observer: collector,
		MaxSteps: reconstructFuel(steps),
		BranchOverride: func(tid, branchID int, natural bool) bool {
			if !p.InputDependent(branchID) {
				return natural
			}
			dir, ok := sites[int32(branchID)]
			if !ok {
				if oracleErr == nil {
					oracleErr = fmt.Errorf("%w: site #%d missing from the narrowed family", ErrReconstruct, branchID)
				}
				return natural
			}
			return dir
		},
	}
	m, err := prog.NewMachine(p, cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrReconstruct, err)
	}
	res := m.Run()
	if oracleErr != nil {
		return nil, 0, oracleErr
	}
	return full, res.Outcome, nil
}
