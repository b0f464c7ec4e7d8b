package symbolic

import (
	"testing"
	"testing/quick"

	"repro/internal/constraint"
	"repro/internal/prog"
	"repro/internal/proggen"
)

// Property: concolic shadow execution is sound — the collected path
// condition always holds for the concrete input that produced it.
func TestQuickPathConditionSound(t *testing.T) {
	check := func(seed uint64, a, b uint8) bool {
		p, _, err := proggen.Generate(proggen.Spec{
			Seed: seed % 100, Depth: 4, NumInputs: 2, Loops: 1,
		})
		if err != nil {
			return false
		}
		e, err := New(p, Config{})
		if err != nil {
			return false
		}
		input := []int64{int64(a), int64(b)}
		path, err := e.Run(input)
		if err != nil {
			return false
		}
		assign := map[int]int64{0: input[0], 1: input[1]}
		return path.Condition().Holds(assign)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a frontier SolveFrontier solves is reached — re-running on the
// solver's input follows the prefix to the same decision point and takes the
// missing direction.
func TestQuickFlipActuallyFlips(t *testing.T) {
	check := func(seed uint64, a, b uint8) bool {
		p, _, err := proggen.Generate(proggen.Spec{
			Seed: seed % 100, Depth: 4, NumInputs: 2,
		})
		if err != nil {
			return false
		}
		e, err := New(p, Config{})
		if err != nil {
			return false
		}
		path, err := e.Run([]int64{int64(a), int64(b)})
		if err != nil {
			return false
		}
		for k := range path.Records {
			if !path.Records[k].Exact {
				continue
			}
			input, verdict, err := flip(e, path, k)
			if err != nil || verdict != constraint.SAT {
				continue
			}
			path2, err := e.Run(input)
			if err != nil || len(path2.Records) <= k {
				return false
			}
			// Same prefix, flipped at k.
			for i := 0; i < k; i++ {
				if path2.Records[i].Event != path.Records[i].Event {
					return false
				}
			}
			if path2.Records[k].Event.ID != path.Records[k].Event.ID {
				return false
			}
			if path2.Records[k].Event.Taken == path.Records[k].Event.Taken {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the concolic interpreter agrees with the reference VM on
// outcome and step count for single-threaded programs.
func TestQuickConcolicMatchesVM(t *testing.T) {
	check := func(seed uint64, a, b uint8) bool {
		p, _, err := proggen.Generate(proggen.Spec{
			Seed: seed % 100, Depth: 4, NumInputs: 2, Loops: 1, Syscalls: 1,
			Bugs: []proggen.BugKind{proggen.BugCrash},
		})
		if err != nil {
			return false
		}
		input := []int64{int64(a), int64(b)}
		model := &prog.DeterministicSyscalls{Seed: 9}

		e, err := New(p, Config{Syscalls: &prog.DeterministicSyscalls{Seed: 9}})
		if err != nil {
			return false
		}
		path, err := e.Run(input)
		if err != nil {
			return false
		}

		m, err := prog.NewMachine(p, prog.Config{Input: input, Syscalls: model})
		if err != nil {
			return false
		}
		res := m.Run()
		return res.Outcome == path.Outcome && res.Steps == path.Result.Steps &&
			res.FaultPC == path.Result.FaultPC
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
