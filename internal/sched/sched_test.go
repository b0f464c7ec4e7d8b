package sched

import (
	"testing"

	"repro/internal/prog"
)

func TestRoundRobinRotates(t *testing.T) {
	rr := &RoundRobin{Quantum: 2}
	runnable := []int{0, 1, 2}
	var picks []int
	for i := 0; i < 6; i++ {
		picks = append(picks, rr.Pick(int64(i), runnable))
	}
	want := []int{0, 0, 1, 1, 2, 2}
	for i := range want {
		if picks[i] != want[i] {
			t.Fatalf("picks = %v, want %v", picks, want)
		}
	}
}

func TestRoundRobinSkipsBlocked(t *testing.T) {
	rr := &RoundRobin{Quantum: 1}
	if got := rr.Pick(0, []int{1, 2}); got != 1 {
		t.Fatalf("pick = %d, want 1", got)
	}
	// Thread 1 now "blocked": only 2 runnable.
	if got := rr.Pick(1, []int{2}); got != 2 {
		t.Fatalf("pick = %d, want 2", got)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a := NewRandom(5, 0.5)
	b := NewRandom(5, 0.5)
	runnable := []int{0, 1, 2}
	for i := 0; i < 50; i++ {
		pa := a.Pick(int64(i), runnable)
		pb := b.Pick(int64(i), runnable)
		if pa != pb {
			t.Fatalf("step %d: %d vs %d", i, pa, pb)
		}
	}
}

func TestRandomDifferentSeedsDiffer(t *testing.T) {
	a := NewRandom(1, 1)
	b := NewRandom(2, 1)
	runnable := []int{0, 1, 2, 3}
	same := true
	for i := 0; i < 30; i++ {
		if a.Pick(int64(i), runnable) != b.Pick(int64(i), runnable) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestSystematicForcesPrefix(t *testing.T) {
	s := NewSystematic([]int{1, 0, 1})
	runnable := []int{0, 1}
	got := []int{s.Pick(0, runnable), s.Pick(1, runnable), s.Pick(2, runnable)}
	want := []int{1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("picks = %v, want %v", got, want)
		}
	}
	if s.Overflowed {
		t.Error("should not overflow within prefix")
	}
	s.Pick(3, runnable)
	if !s.Overflowed {
		t.Error("should overflow past prefix")
	}
}

func TestEnumeratorCoversSpace(t *testing.T) {
	// Simulate a fixed decision space: depth 3, branching factor 2 at each
	// point. The enumerator must generate all 8 schedules and stop.
	e := NewEnumerator(3)
	seen := map[string]bool{}
	for !e.Done() {
		s := e.Next()
		if s == nil {
			break
		}
		// "Run": 3 decisions with 2 runnable threads each.
		key := ""
		runnable := []int{0, 1}
		for i := 0; i < 3; i++ {
			pick := s.Pick(int64(i), runnable)
			key += string(rune('0' + pick))
		}
		seen[key] = true
		e.Report(s)
	}
	if len(seen) != 8 {
		t.Fatalf("explored %d schedules (%v), want 8", len(seen), seen)
	}
	if e.Explored() != 8 {
		t.Errorf("Explored() = %d, want 8", e.Explored())
	}
}

func TestEnumeratorFindsRareDeadlock(t *testing.T) {
	// The dining pair deadlocks only under specific interleavings; the
	// enumerator must find at least one within a small bound.
	b := prog.NewBuilder("dining2", 0).SetLocks(2)
	b.Thread()
	b.Lock(0).Yield().Lock(1).Unlock(1).Unlock(0).Halt()
	b.Thread()
	b.Lock(1).Yield().Lock(0).Unlock(0).Unlock(1).Halt()
	p := b.MustBuild()

	e := NewEnumerator(6)
	foundDeadlock := false
	runs := 0
	for !e.Done() && runs < 200 {
		s := e.Next()
		if s == nil {
			break
		}
		m, err := prog.NewMachine(p, prog.Config{Scheduler: s})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		runs++
		if res.Outcome == prog.OutcomeDeadlock {
			foundDeadlock = true
			break
		}
		e.Report(s)
	}
	if !foundDeadlock {
		t.Fatalf("no deadlock found in %d systematic runs", runs)
	}
}

func TestSystematicFairAfterRotates(t *testing.T) {
	s := NewSystematic(nil).FairAfter(2)
	runnable := []int{0, 1}
	// Decisions 0,1 default to index 0; from decision 2 on, rotation.
	picks := []int{
		s.Pick(0, runnable), s.Pick(1, runnable),
		s.Pick(2, runnable), s.Pick(3, runnable), s.Pick(4, runnable),
	}
	if picks[0] != 0 || picks[1] != 0 {
		t.Fatalf("within-bound defaults = %v, want index 0", picks[:2])
	}
	if picks[2] == picks[3] && picks[3] == picks[4] {
		t.Fatalf("beyond-bound picks never rotate: %v", picks)
	}
}
