package symbolic

import (
	"fmt"
	"testing"

	"repro/internal/constraint"
	"repro/internal/exectree"
	"repro/internal/proggen"
	"repro/internal/stats"
)

// corpusTree grows the tree of runs executions of the deployed corpus's
// program index (proggen.CorpusSpec, the shape cmd/pod and the benchmark
// run: deterministic branches, a loop, a syscall) on random inputs.
func corpusTree(t *testing.T, index, runs int) (*Engine, *exectree.Tree) {
	t.Helper()
	p, _ := proggen.MustGenerate(proggen.CorpusSpec(1, index))
	e := newEngine(t, p)
	tree := exectree.New(p.ID)
	rng := stats.NewRNG(uint64(index) + 1)
	for r := 0; r < runs; r++ {
		path, err := e.Run([]int64{rng.Int63n(1024) - 256})
		if err != nil {
			t.Fatal(err)
		}
		tree.Merge(path.Events(), path.Outcome)
	}
	return e, tree
}

// TestFrontierReplayFollowsPrefix: on trees of 300 runs of each of four
// corpus programs, the forced run SolveFrontier derives its verdict from
// follows every frontier's prefix — deterministic branches included — to the
// frontier: none ends short, none diverges. So a frontier on a
// deterministic branch is always decided (SAT or UNSAT, never Unknown), and
// every SAT input runs down the prefix and through the missing direction.
func TestFrontierReplayFollowsPrefix(t *testing.T) {
	for index := 0; index < 4; index++ {
		e, tree := corpusTree(t, index, 300)
		frontiers := tree.FrontiersAll()
		if len(frontiers) == 0 {
			t.Fatalf("program %d: no frontier", index)
		}
		deterministic, sat := 0, 0
		for _, f := range frontiers {
			what := fmt.Sprintf("program %d: frontier %v after a %d-deep prefix", index, f.Missing, len(f.Prefix))
			if _, ok, err := e.replayPrefix(f); err != nil || !ok {
				t.Errorf("%s: the forced run ends short or diverges (err %v)", what, err)
				continue
			}
			input, verdict, err := e.SolveFrontier(f)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !e.prog.InputDependent(int(f.Missing.ID)) {
				deterministic++
				if verdict == constraint.Unknown {
					t.Errorf("%s: a deterministic branch left undecided", what)
				}
			}
			if verdict != constraint.SAT {
				continue
			}
			sat++
			path, err := e.Run(input)
			if err != nil {
				t.Fatal(err)
			}
			events := path.Events()
			if len(events) <= len(f.Prefix) {
				t.Errorf("%s: the SAT input %v ends after %d branches", what, input, len(events))
				continue
			}
			for i, edge := range f.Prefix {
				if events[i].ID != edge.ID || events[i].Taken != edge.Taken {
					t.Errorf("%s: the SAT input %v leaves the prefix at depth %d", what, input, i)
					break
				}
			}
			if got := events[len(f.Prefix)]; got.ID != f.Missing.ID || got.Taken != f.Missing.Taken {
				t.Errorf("%s: the SAT input %v takes %v at the frontier", what, input, got)
			}
		}
		t.Logf("program %d: %d frontiers, %d on deterministic branches, %d SAT", index, len(frontiers), deterministic, sat)
		if deterministic == 0 {
			t.Errorf("program %d: no frontier on a deterministic branch; the tree does not test the filter", index)
		}
	}
}
