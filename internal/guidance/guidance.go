// Package guidance implements execution steering (paper §3.3): the hive
// identifies directions about which the collective knows too little and
// produces concrete test cases — inputs, thread-schedule prefixes, or
// syscall faults to inject — that pods then execute instead of (or besides)
// their natural workload. Guidance never changes program semantics: steered
// executions are ordinary feasible executions the population just hadn't
// produced yet, so "learning" accelerates without polluting the tree.
package guidance

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/constraint"
	"repro/internal/exectree"
	"repro/internal/memo"
	"repro/internal/prog"
	"repro/internal/sched"
	"repro/internal/symbolic"
)

// TestCase is one steering instruction for a pod.
type TestCase struct {
	// ProgramID binds the test case to a program.
	ProgramID string `json:"programId"`
	// Input is the input vector to execute; nil means keep the natural
	// input.
	Input []int64 `json:"input,omitempty"`
	// Schedule is a systematic schedule decision prefix for multi-threaded
	// programs; nil means the pod's natural schedule. An empty non-nil
	// prefix is meaningful: it forces the all-first-choice schedule.
	Schedule []int `json:"schedule"`
	// Faults are syscall faults to inject (e.g. a short read).
	Faults []prog.FaultSpec `json:"faults,omitempty"`
	// Reason documents the coverage gap this targets.
	Reason string `json:"reason,omitempty"`
}

// Generator produces test cases from a program's execution tree. It is safe
// for concurrent use (the hive serves guidance to many pods at once).
//
// A generator remembers what the solvers said about each frontier it has
// looked at. The verdict — a test case, a refutation, or nothing — is a pure
// function of the program and the frontier's (prefix, missing direction), a
// tree keeps offering its hottest open frontiers pull after pull, and most
// of them come back Unknown for ever: so each is solved once, and a pull
// costs its snapshot plus the solving of what it has not seen before. The
// memory is keyed by the exact bytes of (prefix, missing) —
// exectree.Frontier.AppendKey — never a digest, so what a pull returns is
// case for case what a generator without a memory returns on the same tree,
// whichever tree of the program it is handed. It is bounded by memoBudget in a
// memo.Memo, whose two-generation rotation keeps the frontiers still being
// offered across a full memory.
type Generator struct {
	mu   sync.Mutex
	prog *prog.Program
	// sym is non-nil for single-threaded programs (input synthesis).
	sym *symbolic.Engine
	// symEnv, when non-nil, is a relaxed-consistency engine used to derive
	// fault-injection test cases for syscall-dependent frontiers.
	symEnv *symbolic.Engine
	// enum drives schedule-space exploration for multi-threaded programs.
	enum *sched.Enumerator

	// memo remembers verdicts by frontier key; key is the lookup scratch.
	memo *memo.Memo[verdict]
	key  []byte
}

// verdict is what the solvers made of one frontier: the test case that
// covers it, a refutation (the missing direction is infeasible and the tree
// should be told), or — both zero — nothing.
type verdict struct {
	tc      *TestCase
	refuted bool
}

// memoBudget is the byte budget of one generator's remembered verdicts, both
// generations together. A constant, not a setting: the memory is a pure
// cache, so its size trades memory against re-solving and never changes what
// a pull returns. The largest pull the hive serves looks at 4 × maxGuidanceCases
// frontiers, about 150 KB of verdicts at the depths the benchmark's trees
// reach; one generation holds that window three times over.
const memoBudget = 1 << 20

// NewGenerator builds a generator for p. Single-threaded programs get
// input- and fault-directed steering; multi-threaded programs get schedule
// enumeration.
func NewGenerator(p *prog.Program, scheduleBound int) (*Generator, error) {
	g := &Generator{prog: p, memo: memo.New[verdict](memoBudget)}
	if p.NumThreads() == 1 {
		var err error
		g.sym, err = symbolic.New(p, symbolic.Config{})
		if err != nil {
			return nil, fmt.Errorf("guidance: %w", err)
		}
		g.symEnv, err = symbolic.New(p, symbolic.Config{SymbolicSyscalls: true})
		if err != nil {
			return nil, fmt.Errorf("guidance: %w", err)
		}
	} else {
		if scheduleBound <= 0 {
			scheduleBound = 8
		}
		g.enum = sched.NewEnumerator(scheduleBound)
	}
	return g, nil
}

// Generate derives up to max test cases from the tree's current frontiers.
// The frontier set is a bounded snapshot under the tree's read lock — no
// full-tree walk, and nothing that excludes a merge for longer than one pass
// over the open set. As a side effect, frontiers the solver refutes are
// certified infeasible in the tree (the same discharge the proof engine
// performs — guidance and proving share the gap analysis).
func (g *Generator) Generate(tree *exectree.Tree, max int) []TestCase {
	return g.GenerateWith(tree, max, tree.CertifyInfeasible)
}

// GenerateWith is Generate with the certification of refuted frontiers left
// to the caller: certify is called, once the cases are made and no lock of
// the generator's is held, for each frontier in the snapshot whose missing
// direction is infeasible. The hive uses it to take its checkpoint gate
// around the one step of a pull that is journaled instead of around the
// whole pull. The prefix is the snapshot's and must not be retained.
func (g *Generator) GenerateWith(tree *exectree.Tree, max int, certify func(prefix []exectree.Edge, missing exectree.Edge) bool) []TestCase {
	// Clamp untrusted maxima (max rides in verbatim from the wire's
	// GetGuidance payload): non-positive asks for nothing, and a huge ask
	// is bounded so one request cannot hold the generator for the time it
	// takes to solve a whole tree's frontiers.
	if max <= 0 {
		return nil
	}
	if max > maxGuidanceCases {
		max = maxGuidanceCases
	}
	g.mu.Lock()
	var out []TestCase
	var refuted []exectree.Frontier
	if g.sym != nil {
		out, refuted = g.generateInputs(tree, max)
	}
	if len(out) < max && g.enum != nil {
		out = append(out, g.generateSchedules(max-len(out))...)
	}
	g.mu.Unlock()
	for _, f := range refuted {
		certify(f.Prefix, f.Missing)
	}
	return out
}

// maxGuidanceCases bounds one guidance request, and with it the frontier
// window one request snapshots and solves (4× as many). Pods ask for 4 to 8;
// two orders of magnitude above that is hostile or a bug.
const maxGuidanceCases = 256

// generateInputs makes up to max cases from the tree's hottest frontiers,
// and returns beside them the frontiers of that window it found refuted.
func (g *Generator) generateInputs(tree *exectree.Tree, max int) (out []TestCase, refuted []exectree.Frontier) {
	frontiers := tree.Frontiers(max * 4)
	out = make([]TestCase, 0, min(max, len(frontiers)))
	for _, f := range frontiers {
		if len(out) >= max {
			break
		}
		switch v := g.verdictOn(f); {
		case v.tc != nil:
			// The remembered case keeps its slices to itself: a caller owns
			// what it is handed.
			tc := *v.tc
			tc.Input = slices.Clone(tc.Input)
			tc.Faults = slices.Clone(tc.Faults)
			out = append(out, tc)
		case v.refuted:
			refuted = append(refuted, f)
		}
	}
	return out, refuted
}

// verdictOn answers f from memory, or solves it and remembers the answer.
func (g *Generator) verdictOn(f exectree.Frontier) verdict {
	g.key = f.AppendKey(g.key[:0])
	if v, hit := g.memo.Get(g.key); hit {
		return v
	}
	v := g.solve(f)
	g.memo.Put(g.key, v, verdictBytes(v))
	return v
}

// verdictBytes is what a remembered verdict holds beyond its map entry.
func verdictBytes(v verdict) int {
	if v.tc == nil {
		return 0
	}
	const caseBytes, faultBytes = 104, 24 // unsafe.Sizeof(TestCase{}), (prog.FaultSpec{})
	return caseBytes + 8*len(v.tc.Input) + faultBytes*len(v.tc.Faults) + len(v.tc.Reason)
}

// solve runs the solvers on one frontier: input synthesis first, and when
// that cannot decide, the environment-symbolic retry.
func (g *Generator) solve(f exectree.Frontier) verdict {
	input, sat, err := g.sym.SolveFrontier(f)
	switch {
	case err != nil:
		return verdict{}
	case sat == constraint.SAT:
		return verdict{tc: &TestCase{
			ProgramID: g.prog.ID,
			Input:     input,
			Reason:    fmt.Sprintf("cover %v after %d-deep prefix", f.Missing, len(f.Prefix)),
		}}
	case sat == constraint.UNSAT:
		return verdict{refuted: true}
	}
	// Unknown under input-only consistency: retry with the environment
	// symbolic (S2E-style relaxation) to derive a fault-injection test case.
	if tc, ok := g.solveWithEnvironment(f); ok {
		return verdict{tc: &tc}
	}
	return verdict{}
}

// solveWithEnvironment retries a frontier with syscall returns treated as
// free variables; solved fresh variables become fault-injection specs
// ("test cases ... stated in terms of system call faults", §3.3).
func (g *Generator) solveWithEnvironment(f exectree.Frontier) (TestCase, bool) {
	input, faults, verdict, err := g.symEnv.SolveFrontierEnv(f)
	if err != nil || verdict != constraint.SAT {
		return TestCase{}, false
	}
	return TestCase{
		ProgramID: g.prog.ID,
		Input:     input,
		Faults:    faults,
		Reason:    fmt.Sprintf("cover %v via environment control", f.Missing),
	}, true
}

func (g *Generator) generateSchedules(max int) []TestCase {
	out := make([]TestCase, 0, max)
	for len(out) < max && !g.enum.Done() {
		s := g.enum.Next()
		if s == nil {
			break
		}
		prefix := prefixOf(s)
		if prefix == nil {
			prefix = []int{}
		}
		out = append(out, TestCase{
			ProgramID: g.prog.ID,
			Schedule:  prefix,
			Reason:    "explore thread interleaving",
		})
		// Pods do not report schedule observations back, so the
		// enumeration advances optimistically, assuming binary branching
		// at each decision.
		g.enum.Report(s)
	}
	return out
}

// prefixOf reconstructs the decision prefix a Systematic scheduler forces.
func prefixOf(s *sched.Systematic) []int {
	// The Systematic scheduler does not expose its prefix directly; re-wrap
	// via observation on a fresh instance is not possible here, so the
	// enumerator's contract is used: schedules are identified by their
	// observed choices after a dry pick sequence. We instead export the
	// prefix through sched.
	return s.Prefix()
}
