package exectree

import (
	"runtime"
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

// bytesPerRun reports the bytes fn allocates per call, averaged over runs.
func bytesPerRun(runs int, fn func()) float64 {
	fn() // warm-up, as testing.AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestAllocsDecode guards the bytes a restore allocates per node, for Decode
// of allocChain's base and for the whole chain. Each node's open bucket is
// carved from the slab at its exact size, and the open set is collected in
// chunks and allocated once at its final length: an open set grown by
// append from empty allocates several times its final size and fails the
// base's budget.
func TestAllocsDecode(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	live, base, deltas := allocChain(10_000)
	dec, err := Decode(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		deltas [][]byte
		nodes  int64
		budget float64 // bytes per node
	}{
		{"base", nil, dec.Stats().Nodes, 225},
		{"chain", deltas, live.Stats().Nodes, 229},
	} {
		b := bytesPerRun(5, func() {
			if _, err := DecodeChain(base, tc.deltas); err != nil {
				t.Fatal(err)
			}
		})
		if per := b / float64(tc.nodes); per > tc.budget {
			t.Errorf("%s: restoring %d nodes allocates %.0f B, %.1f B a node; want at most %.0f", tc.name, tc.nodes, b, per, tc.budget)
		} else {
			t.Logf("%s: %d nodes, %.1f B a node (budget %.0f)", tc.name, tc.nodes, per, tc.budget)
		}
	}
}

// BenchmarkDecode measures the restore decode of allocChain's base, and of
// the whole chain.
func BenchmarkDecode(b *testing.B) {
	live, base, deltas := allocChain(15_000)
	b.Logf("%d nodes, %d open frontiers, base %d B", live.Stats().Nodes, live.FrontierCount(), len(base))
	for _, bc := range []struct {
		name   string
		deltas [][]byte
	}{{"base", nil}, {"chain", deltas}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeChain(base, bc.deltas); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
