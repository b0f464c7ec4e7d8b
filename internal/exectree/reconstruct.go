package exectree

import (
	"errors"
	"fmt"

	"repro/internal/prog"
	"repro/internal/trace"
)

// ErrReconstruct is wrapped by reconstruction failures.
var ErrReconstruct = errors.New("exectree: reconstruction failed")

// Reconstruct expands an external-only trace into the full branch decision
// path (paper §3.1/§3.2: "merging a path into an existing tree consists of
// reconstructing the deterministic branches ..."). It re-executes the
// program with a branch oracle: input-dependent branches are forced to the
// recorded directions, syscalls replay the recorded return values, and
// deterministic branches are evaluated naturally — sound because the taint
// analysis guarantees their conditions never carry external data, so any
// placeholder input yields the correct direction.
//
// Reconstruction applies to single-threaded programs; multi-threaded traces
// additionally depend on the schedule and are merged at recorded
// granularity instead.
func Reconstruct(p *prog.Program, tr *trace.Trace) ([]trace.BranchEvent, error) {
	if p.ID != tr.ProgramID {
		return nil, fmt.Errorf("%w: trace for program %s, want %s", ErrReconstruct, tr.ProgramID, p.ID)
	}
	if tr.Mode != trace.CaptureExternalOnly {
		return nil, fmt.Errorf("%w: trace mode %s, want %s", ErrReconstruct, tr.Mode, trace.CaptureExternalOnly)
	}
	if p.NumThreads() > 1 {
		return nil, fmt.Errorf("%w: program %q is multi-threaded", ErrReconstruct, p.Name)
	}

	returns := make([]int64, len(tr.Syscalls))
	for i, s := range tr.Syscalls {
		returns[i] = s.Ret
	}
	in := trace.ReconstructionInput{Outcome: tr.Outcome, Steps: tr.Steps, Branches: tr.Branches, Returns: returns}
	// The placeholder input never reaches an untainted branch.
	return replay(p, make([]int64, p.NumInputs), &in, nil)
}

// replay is Reconstruct's engine, over exactly the values the result is a
// function of (in). placeholder is the all-zero program input (only read);
// the path is appended to full.
func replay(p *prog.Program, placeholder []int64, in *trace.ReconstructionInput, full []trace.BranchEvent) ([]trace.BranchEvent, error) {
	branches, outcome := in.Branches, in.Outcome
	var (
		cursor    int
		oracleErr error
	)
	collector := observerFunc(func(id int, taken bool) {
		full = append(full, trace.BranchEvent{ID: int32(id), Taken: taken})
	})

	cfg := prog.Config{
		Input:    placeholder,
		Syscalls: &prog.ScriptedSyscalls{Returns: in.Returns},
		Observer: collector,
		MaxSteps: reconstructFuel(in.Steps),
		BranchOverride: func(tid, branchID int, natural bool) bool {
			if !p.InputDependent(branchID) {
				return natural
			}
			if cursor >= len(branches) {
				if oracleErr == nil {
					oracleErr = fmt.Errorf("%w: recorded branch stream exhausted at branch #%d", ErrReconstruct, branchID)
				}
				return natural
			}
			rec := branches[cursor]
			cursor++
			if rec.ID != int32(branchID) && oracleErr == nil {
				oracleErr = fmt.Errorf("%w: recorded branch #%d, execution at #%d", ErrReconstruct, rec.ID, branchID)
			}
			return rec.Taken
		},
	}
	m, err := prog.NewMachine(p, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrReconstruct, err)
	}
	res := m.Run()
	if oracleErr != nil {
		return nil, oracleErr
	}
	if cursor != len(branches) {
		return nil, fmt.Errorf("%w: %d recorded branches unconsumed", ErrReconstruct, len(branches)-cursor)
	}
	if res.Outcome != outcome {
		// A benign mismatch is possible when the failure depended on a raw
		// input value that never reached a branch (e.g. div by a value, or
		// crash address); the reconstruction still yields the correct path
		// prefix. Surface it so callers can decide.
		return full, fmt.Errorf("%w: reconstructed outcome %s, recorded %s", ErrReconstruct, res.Outcome, outcome)
	}
	return full, nil
}

// reconstructFuel bounds an oracle replay using the recorded step count
// with headroom; a diverged replay must not spin forever. The count is a
// pod's claim straight off the wire, so it is clamped to what an honest
// execution can report: a hostile value must not buy a replay longer than
// the fuel limit pods themselves run under (and must not overflow the
// doubling into "no limit").
func reconstructFuel(steps int64) int64 {
	if steps <= 0 {
		return prog.DefaultMaxSteps
	}
	if steps > prog.DefaultMaxSteps {
		steps = prog.DefaultMaxSteps
	}
	return steps*2 + 1024
}

// observerFunc adapts a branch callback to prog.Observer.
type observerFunc func(branchID int, taken bool)

var _ prog.Observer = (observerFunc)(nil)

func (f observerFunc) Branch(tid, branchID int, taken bool)   { f(branchID, taken) }
func (f observerFunc) LockAcquire(tid, lockID, pc int)        {}
func (f observerFunc) LockRelease(tid, lockID, pc int)        {}
func (f observerFunc) Syscall(tid int, sysno, arg, ret int64) {}
func (f observerFunc) Schedule(tid int)                       {}
