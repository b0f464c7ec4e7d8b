package cluster

import (
	"testing"

	"repro/internal/proggen"
)

func TestExploreCompletesTree(t *testing.T) {
	p, _ := proggen.MustGenerate(proggen.Spec{Seed: 31, Depth: 4})
	for _, mode := range []Mode{Static, Dynamic, Markowitz} {
		res, err := Explore(p, 4, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !res.Complete {
			t.Errorf("%v: exploration incomplete (%d discharged)", mode, res.Discharged)
		}
		if res.Paths < 2 {
			t.Errorf("%v: paths = %d, want several", mode, res.Paths)
		}
		if res.TotalCost <= 0 || res.Makespan <= 0 {
			t.Errorf("%v: no cost recorded: %+v", mode, res)
		}
	}
}

func TestModesAgreeOnTreeShape(t *testing.T) {
	p, _ := proggen.MustGenerate(proggen.Spec{Seed: 33, Depth: 4})
	var paths, nodes int64
	for i, mode := range []Mode{Static, Dynamic, Markowitz} {
		res, err := Explore(p, 3, mode)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			paths, nodes = res.Paths, res.Nodes
			continue
		}
		if res.Paths != paths || res.Nodes != nodes {
			t.Errorf("%v: tree shape differs: %d/%d vs %d/%d",
				mode, res.Paths, res.Nodes, paths, nodes)
		}
	}
}

func TestDynamicBalancesBetterThanStatic(t *testing.T) {
	// Across several programs and node counts, dynamic assignment should
	// give a lower (or equal) imbalance on average — the E8 claim.
	var staticSum, dynamicSum float64
	samples := 0
	for seed := uint64(40); seed < 48; seed++ {
		p, _ := proggen.MustGenerate(proggen.Spec{Seed: seed, Depth: 5, NumInputs: 2})
		st, err := Explore(p, 8, Static)
		if err != nil {
			t.Fatal(err)
		}
		dy, err := Explore(p, 8, Dynamic)
		if err != nil {
			t.Fatal(err)
		}
		staticSum += st.Imbalance
		dynamicSum += dy.Imbalance
		samples++
	}
	if samples == 0 {
		t.Fatal("no samples")
	}
	if dynamicSum >= staticSum {
		t.Errorf("dynamic mean imbalance %.3f >= static %.3f",
			dynamicSum/float64(samples), staticSum/float64(samples))
	}
}

func TestExploreRejectsBadArgs(t *testing.T) {
	p, _ := proggen.MustGenerate(proggen.Spec{Seed: 1, Depth: 2})
	if _, err := Explore(p, 0, Dynamic); err == nil {
		t.Error("zero nodes accepted")
	}
}
