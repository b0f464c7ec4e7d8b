package exectree

import (
	"testing"

	"repro/internal/prog"
	"repro/internal/race"
	"repro/internal/stats"
	"repro/internal/trace"
)

// allocChain builds a tree of at least minNodes nodes and the chain a
// checkpointing hive would have written for it: the base, then two delta
// segments, each over a further round of merges and a few certificates.
func allocChain(minNodes int64) (live *Tree, base []byte, deltas [][]byte) {
	rng := stats.NewRNG(3)
	outcomes := []prog.Outcome{prog.OutcomeOK, prog.OutcomeOK, prog.OutcomeCrash, prog.OutcomeHang}
	merge := func(n int) {
		for i := 0; i < n; i++ {
			path := make([]trace.BranchEvent, 8+rng.Intn(24))
			for d := range path {
				path[d] = trace.BranchEvent{ID: int32(rng.Intn(64)), Taken: rng.Bool(0.5)}
			}
			live.Merge(path, outcomes[rng.Intn(len(outcomes))])
		}
		for _, f := range live.Frontiers(4) {
			live.CertifyInfeasible(f.Prefix, f.Missing)
		}
	}
	live = New("alloc-prog")
	for live.Stats().Nodes < minNodes {
		merge(100)
	}
	base = live.Encode()
	for i := 0; i < 2; i++ {
		live.SetDeltaTracking(true)
		merge(200)
		deltas = append(deltas, live.EncodeDelta())
	}
	return live, base, deltas
}

// TestAllocsDecodeChain guards the restore decode: nodes, child slots,
// terminal counts and open buckets come from the decode's slab, so a chain
// costs a few allocations per thousand nodes, not several per node.
func TestAllocsDecodeChain(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	live, base, deltas := allocChain(10_000)
	nodes := live.Stats().Nodes
	got, err := DecodeChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	assertTreesEquivalent(t, live, got, "alloc chain")
	avg := testing.AllocsPerRun(5, func() {
		if _, err := DecodeChain(base, deltas); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 0.02 // allocations per node
	if per := avg / float64(nodes); per > budget {
		t.Fatalf("DecodeChain of %d nodes costs %.0f allocs, %.3f a node; want at most %.2f", nodes, avg, per, budget)
	}
}
