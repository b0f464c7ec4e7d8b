package sat

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func allSolvers() []Solver {
	return []Solver{NewChrono(), NewJW(), NewRandom(42)}
}

func TestTrivialSAT(t *testing.T) {
	f := &Formula{NumVars: 2, Clauses: []Clause{{1, 2}, {-1, 2}}}
	for _, s := range allSolvers() {
		res := s.Solve(f, 0, nil)
		if res.Verdict != SAT {
			t.Errorf("%s: verdict = %v, want sat", s.Name(), res.Verdict)
		}
		if !f.Eval(res.Model) {
			t.Errorf("%s: model does not satisfy formula", s.Name())
		}
	}
}

func TestTrivialUNSAT(t *testing.T) {
	f := &Formula{NumVars: 1, Clauses: []Clause{{1}, {-1}}}
	for _, s := range allSolvers() {
		if res := s.Solve(f, 0, nil); res.Verdict != UNSAT {
			t.Errorf("%s: verdict = %v, want unsat", s.Name(), res.Verdict)
		}
	}
}

func TestEmptyClauseUNSAT(t *testing.T) {
	f := &Formula{NumVars: 1, Clauses: []Clause{{}}}
	for _, s := range allSolvers() {
		if res := s.Solve(f, 0, nil); res.Verdict != UNSAT {
			t.Errorf("%s: verdict = %v, want unsat", s.Name(), res.Verdict)
		}
	}
}

func TestNoClausesSAT(t *testing.T) {
	f := &Formula{NumVars: 3}
	for _, s := range allSolvers() {
		if res := s.Solve(f, 0, nil); res.Verdict != SAT {
			t.Errorf("%s: verdict = %v, want sat", s.Name(), res.Verdict)
		}
	}
}

func TestChainedImplications(t *testing.T) {
	// x1 ∧ (x1→x2) ∧ ... ∧ (x9→x10): all must be true.
	f := &Formula{NumVars: 10, Clauses: []Clause{{1}}}
	for v := int32(1); v < 10; v++ {
		f.Clauses = append(f.Clauses, Clause{Lit(-v), Lit(v + 1)})
	}
	for _, s := range allSolvers() {
		res := s.Solve(f, 0, nil)
		if res.Verdict != SAT {
			t.Fatalf("%s: verdict = %v", s.Name(), res.Verdict)
		}
		for v := 1; v <= 10; v++ {
			if !res.Model[v] {
				t.Errorf("%s: x%d = false, want true", s.Name(), v)
			}
		}
	}
}

func TestPigeonholeUNSAT(t *testing.T) {
	for n := 2; n <= 5; n++ {
		f := Pigeonhole(n)
		for _, s := range allSolvers() {
			res := s.Solve(f, 0, nil)
			if res.Verdict != UNSAT {
				t.Errorf("php(%d) %s: verdict = %v, want unsat", n, s.Name(), res.Verdict)
			}
		}
	}
}

func TestSolversAgreeOnRandomInstances(t *testing.T) {
	rng := stats.NewRNG(1)
	solvers := allSolvers()
	for i := 0; i < 30; i++ {
		f := Random3SAT(rng.Split(), 25, 4.26)
		var verdicts []Verdict
		for _, s := range solvers {
			res := s.Solve(f, 0, nil)
			if res.Verdict == SAT && !f.Eval(res.Model) {
				t.Fatalf("instance %d %s: invalid model", i, s.Name())
			}
			verdicts = append(verdicts, res.Verdict)
		}
		for j := 1; j < len(verdicts); j++ {
			if verdicts[j] != verdicts[0] {
				t.Fatalf("instance %d: solver disagreement %v", i, verdicts)
			}
		}
	}
}

func TestSolverDeterminism(t *testing.T) {
	rng := stats.NewRNG(2)
	f := Random3SAT(rng, 40, 4.26)
	for _, s := range allSolvers() {
		r1 := s.Solve(f, 0, nil)
		r2 := s.Solve(f, 0, nil)
		if r1.Verdict != r2.Verdict || r1.Ticks != r2.Ticks {
			t.Errorf("%s: nondeterministic (%v/%d vs %v/%d)",
				s.Name(), r1.Verdict, r1.Ticks, r2.Verdict, r2.Ticks)
		}
	}
}

func TestTickBudgetReturnsUnknown(t *testing.T) {
	f := Pigeonhole(8) // hard
	res := NewChrono().Solve(f, 1000, nil)
	if res.Verdict != Unknown {
		t.Fatalf("verdict = %v, want unknown under tiny budget", res.Verdict)
	}
	if res.Ticks < 1000 {
		t.Errorf("ticks = %d, want >= budget", res.Ticks)
	}
}

func TestCancellation(t *testing.T) {
	f := Pigeonhole(9)
	cancel := make(chan struct{})
	close(cancel)
	res := NewJW().Solve(f, 0, cancel)
	if res.Verdict != Unknown {
		t.Fatalf("verdict = %v, want unknown when pre-cancelled", res.Verdict)
	}
}

func TestGraphColoringSATWhenSparse(t *testing.T) {
	rng := stats.NewRNG(3)
	// A tree (n-1 edges) is always 3-colorable.
	f := GraphColoring(rng, 12, 11, 3)
	res := NewJW().Solve(f, 0, nil)
	if res.Verdict != SAT {
		t.Fatalf("verdict = %v, want sat", res.Verdict)
	}
	if !f.Eval(res.Model) {
		t.Fatal("invalid model")
	}
}

// Property: for random small formulas, DPLL verdicts match brute force.
func TestQuickDPLLMatchesBruteForce(t *testing.T) {
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		nvars := 4 + rng.Intn(5) // 4..8
		f := Random3SAT(rng, nvars, 3.5)
		want := bruteForce(f)
		for _, s := range allSolvers() {
			res := s.Solve(f, 0, nil)
			if (res.Verdict == SAT) != want {
				return false
			}
			if res.Verdict == SAT && !f.Eval(res.Model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func bruteForce(f *Formula) bool {
	n := f.NumVars
	assign := make([]bool, n+1)
	for mask := 0; mask < 1<<n; mask++ {
		for v := 1; v <= n; v++ {
			assign[v] = mask&(1<<(v-1)) != 0
		}
		if f.Eval(assign) {
			return true
		}
	}
	return false
}

func TestMixedBatchDeterministic(t *testing.T) {
	a := NewMixedBatch(9, 10)
	b := NewMixedBatch(9, 10)
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("batch sizes %d/%d, want 10", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Errorf("instance %d name mismatch: %s vs %s", i, a[i].Name, b[i].Name)
		}
		if len(a[i].Formula.Clauses) != len(b[i].Formula.Clauses) {
			t.Errorf("instance %d clause count mismatch", i)
		}
	}
}
