package exectree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/prog"
	"repro/internal/trace"
)

// recountCover recounts edge coverage from the tree's nodes: a direction is
// covered iff some slot of it has visits > 0.
func recountCover(t *Tree) map[Edge]bool {
	out := make(map[Edge]bool)
	t.Walk(func(_ []Edge, n *Node) bool {
		for _, e := range n.Edges() {
			if n.Visits(e) > 0 {
				out[e] = true
			}
		}
		return true
	})
	return out
}

// coverEvent draws a branch event over a small dense ID space, with the
// occasional hostile ID past the dense bitset or below zero.
func coverEvent(rng *rand.Rand) trace.BranchEvent {
	id := int32(rng.Intn(10))
	switch rng.Intn(40) {
	case 0:
		id = maxDenseCoverID + int32(rng.Intn(3))
	case 1:
		id = -1 - int32(rng.Intn(2))
	}
	return trace.BranchEvent{ID: id, Taken: rng.Intn(2) == 1}
}

func coverPath(rng *rand.Rand) []trace.BranchEvent {
	path := make([]trace.BranchEvent, 1+rng.Intn(10))
	for i := range path {
		path[i] = coverEvent(rng)
	}
	return path
}

// zeroSlots sets the visits of a random share of the tree's edge slots to 0,
// what a hostile or degenerate segment can carry. It bypasses Merge, so the
// tree's own aggregates are stale afterwards: only its encodings are used.
func zeroSlots(t *Tree, rng *rand.Rand) {
	var rec func(n *Node)
	rec = func(n *Node) {
		for i := range n.kids {
			if rng.Intn(3) == 0 {
				n.kids[i].visits = 0
			}
			rec(n.kids[i].node)
		}
	}
	rec(t.root)
}

// assertCoverMatchesWalk holds every reader of the coverage set to the
// recount: Stats().EdgesCovered, EdgeCoverage, and PricePath's NewEdges for
// random paths.
func assertCoverMatchesWalk(t *testing.T, tr *Tree, rng *rand.Rand, label string) {
	t.Helper()
	want := recountCover(tr)
	if got := tr.Stats().EdgesCovered; got != len(want) {
		t.Fatalf("%s: Stats().EdgesCovered = %d, recount %d", label, got, len(want))
	}
	if got, _ := tr.EdgeCoverage(&prog.Program{}); got != len(want) {
		t.Fatalf("%s: EdgeCoverage = %d, recount %d", label, got, len(want))
	}
	for k := 0; k < 4; k++ {
		path := coverPath(rng)
		newEdges := 0
		for _, be := range path {
			if !want[Edge{ID: be.ID, Taken: be.Taken}] {
				newEdges++
			}
		}
		if got := tr.PricePath(path, prog.OutcomeOK).NewEdges; got != newEdges {
			t.Fatalf("%s: PricePath(%v).NewEdges = %d, recount says %d", label, path, got, newEdges)
		}
	}
}

// mergeChecked merges a random path and holds its NewEdges to what the
// recount gained.
func mergeChecked(t *testing.T, tr *Tree, rng *rand.Rand, label string) {
	t.Helper()
	before := len(recountCover(tr))
	res := tr.Merge(coverPath(rng), prog.OutcomeOK)
	if after := len(recountCover(tr)); res.NewEdges != after-before {
		t.Fatalf("%s: Merge reported %d new edges, recount grew %d -> %d", label, res.NewEdges, before, after)
	}
}

// TestPropCoverageSetMatchesWalk applies random merges, decodes and delta
// chains — including hostile segments whose slots carry 0 visits — and
// holds the coverage set to a recount from Walk after every step, and every
// merge's NewEdges to what the recount gained.
func TestPropCoverageSetMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for round := 0; round < 150; round++ {
		label := func(step string) string { return fmt.Sprintf("round %d: %s", round, step) }
		live := New("cover-prog")
		live.SetDeltaTracking(true)
		for m := rng.Intn(30); m > 0; m-- {
			mergeChecked(t, live, rng, label("live merge"))
		}
		assertCoverMatchesWalk(t, live, rng, label("live"))

		// A base and a chain of deltas, some segments hostile.
		base := live.Encode()
		if rng.Intn(3) == 0 {
			hostile, err := Decode(base)
			if err != nil {
				t.Fatal(err)
			}
			zeroSlots(hostile, rng)
			base = hostile.Encode()
		}
		var deltas [][]byte
		for d := rng.Intn(4); d > 0; d-- {
			for m := 1 + rng.Intn(6); m > 0; m-- {
				mergeChecked(t, live, rng, label("chain merge"))
			}
			if rng.Intn(3) == 0 {
				// A hostile last segment: the dirty nodes' slots written
				// with 0 visits.
				zeroSlots(live, rng)
				deltas = append(deltas, live.EncodeDelta())
				break
			}
			deltas = append(deltas, live.EncodeDelta())
			live.ResetDelta()
		}

		got, err := DecodeChain(base, deltas)
		if err != nil {
			t.Fatalf("round %d: decode chain: %v", round, err)
		}
		assertCoverMatchesWalk(t, got, rng, label("decoded chain"))
		for m := rng.Intn(20); m > 0; m-- {
			mergeChecked(t, got, rng, label("merge into decoded chain"))
		}
		assertCoverMatchesWalk(t, got, rng, label("decoded chain after merges"))

		again, err := Decode(got.Encode())
		if err != nil {
			t.Fatalf("round %d: re-decode: %v", round, err)
		}
		assertCoverMatchesWalk(t, again, rng, label("re-decoded"))
	}
}

// TestZeroVisitSlotCoveredOnFirstTraversal: a decoded slot that carries 0
// visits does not cover its direction, and the first merge through it does —
// reported as a new edge and counted by every reader.
func TestZeroVisitSlotCoveredOnFirstTraversal(t *testing.T) {
	src := New("zero-prog")
	path := []trace.BranchEvent{{ID: 1, Taken: true}, {ID: 2, Taken: false}}
	src.Merge(path, prog.OutcomeOK)
	src.root.kids[0].node.kids[0].visits = 0 // #2- at depth 1
	tr, err := Decode(src.Encode())
	if err != nil {
		t.Fatal(err)
	}
	e := Edge{ID: 2, Taken: false}
	if tr.Stats().EdgesCovered != 1 || tr.PricePath(path, prog.OutcomeOK).NewEdges != 1 {
		t.Fatalf("decoded: covered %d, price %+v; want only #1+ covered", tr.Stats().EdgesCovered, tr.PricePath(path, prog.OutcomeOK))
	}
	res := tr.Merge(path, prog.OutcomeOK)
	if res.NewEdges != 1 || res.NewNodes != 0 {
		t.Fatalf("first traversal of the 0-visit slot %v: %+v, want 1 new edge and no new node", e, res)
	}
	if covered, _ := tr.EdgeCoverage(&prog.Program{}); covered != 2 || tr.PricePath(path, prog.OutcomeOK).NewEdges != 0 {
		t.Fatalf("after the traversal: covered %d, price %+v; want both directions covered", covered, tr.PricePath(path, prog.OutcomeOK))
	}
	if res := tr.Merge(path, prog.OutcomeOK); res.NewEdges != 0 {
		t.Fatalf("second traversal reported %d new edges", res.NewEdges)
	}
}
