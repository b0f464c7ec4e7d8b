package exectree

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/prog"
	"repro/internal/race"
	"repro/internal/stats"
	"repro/internal/trace"
)

// frontiersEqual compares two frontier slices elementwise (both sides are
// produced in the deterministic sortFrontiers order).
func frontiersEqual(a, b []Frontier) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Missing != b[i].Missing || a[i].SiblingVisits != b[i].SiblingVisits ||
			len(a[i].Prefix) != len(b[i].Prefix) {
			return false
		}
		for j := range a[i].Prefix {
			if a[i].Prefix[j] != b[i].Prefix[j] {
				return false
			}
		}
	}
	return true
}

// randomMergeCertify drives a tree through a random interleaving of merges
// and infeasibility certifications — the two operations that mutate the
// open frontier set.
func randomMergeCertify(seed uint64, ops int) *Tree {
	rng := stats.NewRNG(seed)
	t := New("prog-frontier")
	for i := 0; i < ops; i++ {
		if rng.Bool(0.15) {
			// Certify a currently open frontier (sometimes a stale one).
			fr := t.FrontiersAll()
			if len(fr) > 0 {
				f := fr[rng.Intn(len(fr))]
				t.CertifyInfeasible(f.Prefix, f.Missing)
			}
			continue
		}
		n := rng.Intn(9)
		path := make([]trace.BranchEvent, n)
		for j := range path {
			path[j] = trace.BranchEvent{ID: int32(rng.Intn(5)), Taken: rng.Bool(0.5)}
		}
		outcome := prog.OutcomeOK
		if rng.Bool(0.2) {
			outcome = prog.OutcomeCrash
		}
		t.Merge(path, outcome)
	}
	return t
}

// TestQuickFrontierIndexMatchesWalk is the index≡recomputation property:
// after any random merge/certify sequence, the incrementally maintained
// frontier set must equal the set a full tree walk recomputes.
func TestQuickFrontierIndexMatchesWalk(t *testing.T) {
	check := func(seed uint64) bool {
		tr := randomMergeCertify(seed, int(seed%120)+5)
		if !frontiersEqual(tr.FrontiersAll(), tr.FrontiersByWalk(0)) {
			return false
		}
		// The limited snapshot (heap-selected top-k) must agree with the
		// truncated full recomputation too.
		limit := int(seed%7) + 1
		return frontiersEqual(tr.Frontiers(limit), tr.FrontiersByWalk(limit))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestFrontierIndexSurvivesCodec checks Decode rebuilds the index: a
// deserialized tree must serve the same frontiers as a full walk over it.
func TestFrontierIndexSurvivesCodec(t *testing.T) {
	tr := randomMergeCertify(42, 150)
	got, err := Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !frontiersEqual(got.FrontiersAll(), got.FrontiersByWalk(0)) {
		t.Fatal("decoded tree: index and walk disagree")
	}
	if !frontiersEqual(got.FrontiersAll(), tr.FrontiersAll()) {
		t.Fatal("decoded tree: frontiers differ from original")
	}
}

// TestFrontierCount pins the O(1) count against the snapshot.
func TestFrontierCount(t *testing.T) {
	tr := randomMergeCertify(7, 200)
	if got, want := tr.FrontierCount(), len(tr.FrontiersAll()); got != want {
		t.Fatalf("FrontierCount = %d, want %d", got, want)
	}
	if tr.Complete() != (tr.FrontierCount() == 0) {
		t.Fatal("Complete disagrees with FrontierCount")
	}
}

// TestQuickFrontierRarityChurn drives heavy revisit traffic (small ID
// space, long paths) so open frontiers have their rarity signal bumped many
// times, then checks the incrementally repositioned index still agrees with
// recomputation — the cached sibling-visit counts must never go stale.
func TestQuickFrontierRarityChurn(t *testing.T) {
	rng := stats.NewRNG(1234)
	tr := New("prog-churn")
	for i := 0; i < 4000; i++ {
		n := rng.Intn(10) + 2
		path := make([]trace.BranchEvent, n)
		for j := range path {
			// Heavily biased directions: siblings stay unexplored while the
			// explored side racks up visits.
			path[j] = trace.BranchEvent{ID: int32(rng.Intn(6)), Taken: rng.Bool(0.9)}
		}
		tr.Merge(path, prog.OutcomeOK)
		if i%512 == 0 {
			if !frontiersEqual(tr.FrontiersAll(), tr.FrontiersByWalk(0)) {
				t.Fatalf("after %d merges: index and walk disagree", i+1)
			}
		}
	}
	if !frontiersEqual(tr.FrontiersAll(), tr.FrontiersByWalk(0)) {
		t.Fatal("final: index and walk disagree")
	}
	if !frontiersEqual(tr.Frontiers(16), tr.FrontiersByWalk(16)) {
		t.Fatal("final limited: index and walk disagree")
	}
}

// mergedPaths is the workload of buildAdversarialTree: every merge explores
// one direction of fresh branch IDs, so nearly every new node leaves an
// unexplored sibling behind and the open set grows with the tree.
func mergedPaths(merges int) [][]trace.BranchEvent {
	rng := stats.NewRNG(4242)
	paths := make([][]trace.BranchEvent, merges)
	for i := range paths {
		path := make([]trace.BranchEvent, rng.Intn(12)+4)
		for j := range path {
			path[j] = trace.BranchEvent{ID: int32(rng.Intn(1 << 16)), Taken: rng.Bool(0.5)}
		}
		paths[i] = path
	}
	return paths
}

// retraverse merges every path again: each open frontier's explored sibling
// is traversed once more, which is what fleet traffic does to a hot tree
// between two guidance pulls.
func retraverse(t *Tree, paths [][]trace.BranchEvent) {
	for _, p := range paths {
		t.Merge(p, prog.OutcomeOK)
	}
}

// TestAllocsFrontiersTouched pins that a snapshot allocates for its winners
// only, however many frontiers had their rarity signal moved since the last
// one: the heap, the result, the shared prefix backing, and the sort's
// closure — not one allocation per open frontier (the pending overlay this
// replaced made 3 357 at 4 780 open).
func TestAllocsFrontiersTouched(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	const k = 32
	tr := New("prog-adversarial")
	paths := mergedPaths(4096)
	retraverse(tr, paths)
	if open := tr.FrontierCount(); open < 4096 {
		t.Fatalf("only %d open frontiers; the workload no longer stresses the scan", open)
	}
	retraverse(tr, paths)
	allocs := testing.AllocsPerRun(5, func() {
		if got := tr.Frontiers(k); len(got) != k {
			t.Fatalf("Frontiers(%d) returned %d", k, len(got))
		}
	})
	if allocs > k+8 {
		t.Fatalf("Frontiers(%d) on a touched tree: %.0f allocations, want <= %d", k, allocs, k+8)
	}
	if !frontiersEqual(tr.Frontiers(k), tr.FrontiersByWalk(k)) {
		t.Fatal("touched tree: open set and walk disagree")
	}
}

// TestFrontiersConcurrentReaders runs snapshots beside the writers they used
// to exclude (run under -race): every snapshot taken while mergers and a
// certifier mutate the tree is strictly sorted by frontierLess — so also
// duplicate-free — and within its limit, and once the writers stop the open
// set equals the walk.
func TestFrontiersConcurrentReaders(t *testing.T) {
	const mergers, readers, limit = 4, 3, 16
	tr := New("prog-readers")
	stop := make(chan struct{})
	var writers, readersWG sync.WaitGroup
	for w := 0; w < mergers; w++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			rng := stats.NewRNG(seed)
			for i := 0; i < 1500; i++ {
				path := make([]trace.BranchEvent, rng.Intn(10)+2)
				for j := range path {
					path[j] = trace.BranchEvent{ID: int32(rng.Intn(6)), Taken: rng.Bool(0.85)}
				}
				tr.Merge(path, prog.OutcomeOK)
			}
		}(uint64(w) + 1)
	}
	writers.Add(1)
	go func() { // certifier
		defer writers.Done()
		rng := stats.NewRNG(99)
		for i := 0; i < 200; i++ {
			if fr := tr.Frontiers(8); len(fr) > 0 {
				f := fr[rng.Intn(len(fr))]
				tr.CertifyInfeasible(f.Prefix, f.Missing)
			}
		}
	}()
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				runtime.Gosched() // the writers need the two cores of a CI runner too
				fr := tr.Frontiers(limit)
				if len(fr) > limit {
					errs <- fmt.Sprintf("snapshot of %d exceeds limit %d", len(fr), limit)
					return
				}
				for i := 1; i < len(fr); i++ {
					a, b := fr[i-1], fr[i]
					if !frontierLess(a.SiblingVisits, a.Prefix, a.Missing, b.SiblingVisits, b.Prefix, b.Missing) {
						errs <- fmt.Sprintf("snapshot not strictly sorted at %d: %v then %v", i, a, b)
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readersWG.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if !frontiersEqual(tr.FrontiersAll(), tr.FrontiersByWalk(0)) {
		t.Fatal("after quiescence: open set and walk disagree")
	}
	if !frontiersEqual(tr.Frontiers(limit), tr.FrontiersByWalk(limit)) {
		t.Fatal("after quiescence: limited snapshot and walk disagree")
	}
}

// TestFrontiersTouchedSurviveCodec checks both restore paths on a tree whose
// rarity signals have moved since its frontiers opened: Decode of a full
// snapshot, and DecodeChain of a base plus delta segments cut while traffic
// kept re-traversing, serve the same Frontiers(k) as the source.
func TestFrontiersTouchedSurviveCodec(t *testing.T) {
	const k = 24
	paths := mergedPaths(600)
	tr := New("prog-adversarial")
	retraverse(tr, paths[:200])
	base := tr.Encode()
	tr.SetDeltaTracking(true)
	var deltas [][]byte
	for _, chunk := range [][][]trace.BranchEvent{paths[100:400], paths[:600], paths[300:500]} {
		retraverse(tr, chunk)
		if fr := tr.Frontiers(3); len(fr) == 3 {
			tr.CertifyInfeasible(fr[1].Prefix, fr[1].Missing)
		}
		deltas = append(deltas, tr.EncodeDelta())
		tr.ResetDelta()
	}
	want := tr.Frontiers(k)
	if len(want) != k {
		t.Fatalf("source serves %d frontiers, want %d", len(want), k)
	}
	full, err := Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !frontiersEqual(full.Frontiers(k), want) {
		t.Fatal("Decode: frontiers differ from source")
	}
	chained, err := DecodeChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if !frontiersEqual(chained.Frontiers(k), want) {
		t.Fatal("DecodeChain: frontiers differ from source")
	}
	if got, want := chained.FrontierCount(), tr.FrontierCount(); got != want {
		t.Fatalf("DecodeChain: %d open frontiers, source has %d", got, want)
	}
}

// buildAdversarialTree grows a tree whose open-frontier set scales with the
// tree itself (see mergedPaths) — the workload where a per-snapshot scan of
// the open set is at its most expensive.
func buildAdversarialTree(b *testing.B, merges int) (*Tree, [][]trace.BranchEvent) {
	b.Helper()
	paths := mergedPaths(merges)
	t := New("prog-adversarial")
	retraverse(t, paths)
	return t, paths
}

// BenchmarkFrontiersAdversarial prices Frontiers(32) against the size of the
// open set, in the two regimes that used to differ by three orders of
// magnitude. never-touched: no sibling has been traversed since the previous
// pull, every rarity signal is 1 and every compare falls through to depth
// and path — the worst case for the scan (O(open), where the ordered index
// this replaced read its first 32 entries in 2-14 us at any size).
// touched: every sibling is re-traversed between two pulls, which is what a
// hot tree under fleet traffic looks like by the next pull; the ordered
// index paid 1.7 / 15.5 / 154 ms here to repair itself, the scan costs the
// same as it does untouched or less (most entries lose on rarity alone).
// The touched rows time the re-merge too; the remerge rows are that cost
// alone, to subtract. No workload in BENCHMARK.json pulls a tree more often
// than it merges into it; a caller that does pays the never-touched price.
func BenchmarkFrontiersAdversarial(b *testing.B) {
	for _, merges := range []int{512, 4096, 32768} {
		tree, paths := buildAdversarialTree(b, merges)
		open := tree.FrontierCount()
		b.Run(fmt.Sprintf("never-touched/open=%d", open), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tree.Frontiers(32)
			}
		})
		b.Run(fmt.Sprintf("touched/open=%d", open), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				retraverse(tree, paths)
				b.StartTimer()
				tree.Frontiers(32)
			}
		})
		b.Run(fmt.Sprintf("fullwalk/open=%d", open), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tree.FrontiersByWalk(32)
			}
		})
	}
}

// buildWideTree merges n random deep paths over a wide branch-ID space —
// large trees with many interior nodes, the shape that made the full walk
// starve merges.
func buildWideTree(b *testing.B, merges int) *Tree {
	b.Helper()
	rng := stats.NewRNG(99)
	t := New("prog-bench")
	for i := 0; i < merges; i++ {
		n := rng.Intn(24) + 8
		path := make([]trace.BranchEvent, n)
		for j := range path {
			path[j] = trace.BranchEvent{ID: int32(rng.Intn(64)), Taken: rng.Bool(0.5)}
		}
		t.Merge(path, prog.OutcomeOK)
	}
	return t
}

// BenchmarkFrontiersConcurrentChurn measures guidance-pull latency while
// merge traffic churns the tree from other goroutines: the snapshot shares
// the read lock and waits only for the merge in flight.
func BenchmarkFrontiersConcurrentChurn(b *testing.B) {
	tree := buildWideTree(b, 4096)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := stats.NewRNG(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := rng.Intn(24) + 8
				path := make([]trace.BranchEvent, n)
				for j := range path {
					path[j] = trace.BranchEvent{ID: int32(rng.Intn(64)), Taken: rng.Bool(0.9)}
				}
				tree.Merge(path, prog.OutcomeOK)
			}
		}(uint64(w) + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Frontiers(32)
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkFrontiers compares the guidance read path's two snapshot
// strategies as the tree grows: the flat open set (cost ~ open frontiers)
// against the full-walk recomputation (cost ~ whole tree).
func BenchmarkFrontiers(b *testing.B) {
	for _, merges := range []int{256, 2048, 16384} {
		tree := buildWideTree(b, merges)
		nodes := tree.Stats().Nodes
		b.Run(fmt.Sprintf("snapshot/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tree.Frontiers(32)
			}
		})
		b.Run(fmt.Sprintf("fullwalk/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tree.FrontiersByWalk(32)
			}
		})
	}
}
