package proggen

import (
	"testing"
	"testing/quick"

	"repro/internal/prog"
	"repro/internal/sched"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Seed: 42, Depth: 4, Loops: 1, Syscalls: 1, Bugs: []BugKind{BugCrash}}
	p1, b1 := MustGenerate(spec)
	p2, b2 := MustGenerate(spec)
	if p1.ID != p2.ID {
		t.Error("same spec produced different programs")
	}
	if len(b1) != len(b2) || b1[0] != b2[0] {
		t.Errorf("ground truth differs: %+v vs %+v", b1, b2)
	}
}

func TestGenerateValidates(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		p, _, err := Generate(Spec{Seed: seed, Depth: 4, Loops: 2, Syscalls: 1,
			Bugs: []BugKind{BugCrash, BugAssert}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: invalid program: %v", seed, err)
		}
	}
}

func TestCrashBugTriggers(t *testing.T) {
	p, bugs := MustGenerate(Spec{Seed: 7, Depth: 4, Bugs: []BugKind{BugCrash}})
	var bug Bug
	found := false
	for _, b := range bugs {
		if b.Kind == BugCrash {
			bug, found = b, true
		}
	}
	if !found {
		t.Fatal("no crash bug planted")
	}

	input := make([]int64, p.NumInputs)
	input[bug.Input] = bug.TriggerLo
	m, err := prog.NewMachine(p, prog.Config{Input: input})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Outcome != prog.OutcomeCrash {
		t.Fatalf("trigger input %v: outcome = %v, want crash (bug %+v)", input, res.Outcome, bug)
	}
	if res.FaultPC != bug.FaultPC {
		t.Errorf("FaultPC = %d, ground truth %d", res.FaultPC, bug.FaultPC)
	}

	// An input outside the trigger range must not crash at the bug site.
	input[bug.Input] = bug.TriggerHi + 1
	m2, _ := prog.NewMachine(p, prog.Config{Input: input})
	res2 := m2.Run()
	if res2.Outcome == prog.OutcomeCrash && res2.FaultPC == bug.FaultPC {
		t.Errorf("non-trigger input still crashes at bug site")
	}
}

func TestAssertBugTriggers(t *testing.T) {
	p, bugs := MustGenerate(Spec{Seed: 9, Depth: 4, Bugs: []BugKind{BugAssert}})
	var bug Bug
	for _, b := range bugs {
		if b.Kind == BugAssert {
			bug = b
		}
	}
	input := make([]int64, p.NumInputs)
	input[bug.Input] = bug.TriggerLo
	m, err := prog.NewMachine(p, prog.Config{Input: input})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Outcome != prog.OutcomeAssertFail {
		t.Fatalf("outcome = %v, want assert-fail", res.Outcome)
	}
	if res.AssertID != bug.AssertID {
		t.Errorf("AssertID = %d, ground truth %d", res.AssertID, bug.AssertID)
	}
}

func TestHangBugTriggers(t *testing.T) {
	p, bugs := MustGenerate(Spec{Seed: 11, Depth: 3, Bugs: []BugKind{BugHang}})
	var bug Bug
	for _, b := range bugs {
		if b.Kind == BugHang {
			bug = b
		}
	}
	input := make([]int64, p.NumInputs)
	input[bug.Input] = bug.TriggerLo
	m, err := prog.NewMachine(p, prog.Config{Input: input, MaxSteps: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res.Outcome != prog.OutcomeHang {
		t.Fatalf("outcome = %v, want hang", res.Outcome)
	}
}

func TestDeadlockBugTriggers(t *testing.T) {
	p, bugs := MustGenerate(Spec{Seed: 13, Depth: 2, Bugs: []BugKind{BugDeadlock}})
	hasDeadlockBug := false
	for _, b := range bugs {
		if b.Kind == BugDeadlock {
			hasDeadlockBug = true
		}
	}
	if !hasDeadlockBug {
		t.Fatal("no deadlock bug in ground truth")
	}
	if p.NumThreads() != 3 {
		t.Fatalf("threads = %d, want 3 (main + pair)", p.NumThreads())
	}
	// Some random schedule must deadlock.
	found := false
	for seed := uint64(0); seed < 300 && !found; seed++ {
		m, err := prog.NewMachine(p, prog.Config{
			Input:     make([]int64, p.NumInputs),
			Scheduler: sched.NewRandom(seed, 0.9),
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.Run().Outcome == prog.OutcomeDeadlock {
			found = true
		}
	}
	if !found {
		t.Fatal("no schedule deadlocked in 300 tries")
	}
}

func TestBenignInputsMostlyOK(t *testing.T) {
	p, bugs := MustGenerate(Spec{Seed: 17, Depth: 5, Loops: 1,
		Bugs: []BugKind{BugCrash, BugAssert}})
	failures := 0
	runs := 0
	for v := int64(0); v < 256; v += 3 {
		input := make([]int64, p.NumInputs)
		for i := range input {
			input[i] = v
		}
		triggered := false
		for _, b := range bugs {
			if b.Triggered(input) {
				triggered = true
			}
		}
		if triggered {
			continue
		}
		runs++
		m, err := prog.NewMachine(p, prog.Config{Input: input})
		if err != nil {
			t.Fatal(err)
		}
		if m.Run().Outcome.IsFailure() {
			failures++
		}
	}
	if runs == 0 {
		t.Fatal("no benign inputs sampled")
	}
	if failures > 0 {
		t.Errorf("%d/%d non-trigger inputs failed (ground truth incomplete)", failures, runs)
	}
}

// Property: generated programs never fail validation and all bug triggers
// are inside the domain.
func TestQuickGeneratedProgramsWellFormed(t *testing.T) {
	check := func(seed uint64) bool {
		p, bugs, err := Generate(Spec{
			Seed: seed, Depth: 3 + int(seed%3), Loops: int(seed % 2),
			Syscalls: int(seed % 2),
			Bugs:     []BugKind{BugCrash},
		})
		if err != nil || p.Validate() != nil {
			return false
		}
		for _, b := range bugs {
			if b.Kind == BugCrash && (b.TriggerLo < 0 || b.TriggerHi >= 256 || b.TriggerLo > b.TriggerHi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTooManyBugsRejected(t *testing.T) {
	_, _, err := Generate(Spec{Seed: 1, Depth: 1,
		Bugs: []BugKind{BugCrash, BugAssert, BugHang, BugCrash, BugAssert}})
	if err == nil {
		t.Skip("generator managed to place all bugs; acceptable")
	}
}

// TestSyscallCrashLandsOnASyscallBranch: whatever the seed and the shape of
// the input-branch tree, and whatever else is planted beside it, a syscall
// crash is hosted by a syscall branch — the ground truth names its syscall
// and the injected return value crashes there. The input tree used to pop
// the bug when its coin flip said so and plant an empty guard, recorded as
// Bug{Sysno: -1}. A spec with no syscall branch to host it is refused.
func TestSyscallCrashLandsOnASyscallBranch(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		spec := Spec{Seed: seed, Depth: 1 + int(seed%4), Syscalls: 2, TriggerWidth: 16,
			Bugs: []BugKind{BugSyscallCrash}}
		if seed%2 == 0 {
			spec.Bugs = []BugKind{BugCrash, BugSyscallCrash, BugAssert}
		}
		p, bugs, err := Generate(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(bugs) != len(spec.Bugs) {
			t.Fatalf("seed %d: %d bugs recorded for %d asked", seed, len(bugs), len(spec.Bugs))
		}
		for _, bug := range bugs {
			if bug.Kind != BugSyscallCrash {
				continue
			}
			if bug.Sysno < 0 {
				t.Fatalf("seed %d: syscall crash recorded with no syscall: %+v", seed, bug)
			}
			// An input outside every input-triggered bug's range, so the run
			// reaches the syscall branches.
			input := make([]int64, p.NumInputs)
			for v := int64(0); v < 256; v++ {
				input[0] = v
				clear := true
				for _, other := range bugs {
					clear = clear && !other.Triggered(input)
				}
				if clear {
					break
				}
			}
			m, err := prog.NewMachine(p, prog.Config{Input: input, Syscalls: &prog.FaultInjector{
				Base:   &prog.DeterministicSyscalls{Range: 1},
				Faults: []prog.FaultSpec{{Sysno: bug.Sysno, CallIndex: -1, Return: bug.SysTriggerLo}},
			}})
			if err != nil {
				t.Fatal(err)
			}
			if res := m.Run(); res.Outcome != prog.OutcomeCrash || res.FaultPC != bug.FaultPC {
				t.Fatalf("seed %d: syscall %d returning %d: outcome %v at pc %d, want a crash at %d", seed, bug.Sysno, bug.SysTriggerLo, res.Outcome, res.FaultPC, bug.FaultPC)
			}
		}
	}
	if _, _, err := Generate(Spec{Seed: 1, Depth: 3, Bugs: []BugKind{BugSyscallCrash}}); err == nil {
		t.Fatal("a syscall crash with no syscall branch to host it was accepted")
	}
}
