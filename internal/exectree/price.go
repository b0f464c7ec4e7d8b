package exectree

import (
	"repro/internal/prog"
	"repro/internal/trace"
)

// PathPrice is the read-only value estimate of one execution path BEFORE
// it is merged — what the hive's load shedder prices batches with under
// overload. It is computed against the tree as-is: a concurrent merge may
// make the estimate stale by one batch, which only ever errs toward
// admitting (a just-covered edge still looks new), never toward shedding
// novel work.
type PathPrice struct {
	// NewEdges counts (branch, direction) decisions the coverage set has
	// never seen — merging this path would raise branch coverage.
	NewEdges int
	// NovelPath is true when the path's root-to-terminal walk is not fully
	// known: it diverges from the tree, or it terminates with an outcome
	// never observed at its terminal node. A path with !NovelPath and zero
	// NewEdges is a structural duplicate — merging it moves only visit
	// counters.
	NovelPath bool
	// SiblingVisits is the rarity signal at the point of novelty: the
	// traversal count of the explored sibling at the divergence (or of the
	// terminal's incoming edge for a novel outcome). It carries the same
	// meaning as Frontier.SiblingVisits — a heavily visited sibling whose
	// other side stayed unexplored marks a biased input distribution, the
	// frontier a snapshot ranks first — so a shedder deferring
	// "low-rarity" novelty defers LOW SiblingVisits paths and keeps the
	// prime steering targets flowing.
	SiblingVisits int64
}

// PricePath prices one execution path against the current tree under the
// read lock, mutating nothing — unlike Merge it never grows the coverage
// set or the node structure, so concurrent pricing scales like any
// other read.
func (t *Tree) PricePath(path []trace.BranchEvent, outcome prog.Outcome) PathPrice {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var p PathPrice
	node := t.root
	var incoming int64
	for _, be := range path {
		e := Edge{ID: be.ID, Taken: be.Taken}
		if !t.coveredLocked(e) {
			p.NewEdges++
		}
		if node == nil {
			continue // past the divergence: only coverage is left to count
		}
		ci := node.kidIndex(e)
		if ci < 0 {
			p.NovelPath = true
			p.SiblingVisits = node.Visits(Edge{ID: e.ID, Taken: !e.Taken})
			node = nil
			continue
		}
		incoming = node.kids[ci].visits
		node = node.kids[ci].node
	}
	if node != nil && node.terminalCount(outcome) == 0 {
		// The structure is fully known but no execution ever ended here
		// with this outcome — a novel terminal (this is how a first crash
		// on a well-trodden path shows up).
		p.NovelPath = true
		p.SiblingVisits = incoming
	}
	return p
}
