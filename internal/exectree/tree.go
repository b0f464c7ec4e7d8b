// Package exectree implements the collective execution tree of paper §3.2:
// the hive's dynamically built decode of a program's decision tree,
// assembled by merging naturally occurring execution paths. Every merged
// path came from a real execution, so it is feasible by construction and no
// constraint solving happens at merge time — the paper's central
// information-recycling argument.
package exectree

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/prog"
	"repro/internal/trace"
)

// Edge is one branch decision: which static branch, and which way it went.
// Tree nodes key children by Edge rather than by position because different
// thread interleavings can weave different branch sequences through the same
// prefix (paper §3.2).
type Edge struct {
	ID    int32
	Taken bool
}

// String renders the edge as "#id+"/"#id-".
func (e Edge) String() string {
	if e.Taken {
		return fmt.Sprintf("#%d+", e.ID)
	}
	return fmt.Sprintf("#%d-", e.ID)
}

// childRef is one outgoing edge slot: the decision, its traversal count,
// and the subtree it leads to. Nodes keep their outgoing edges in a small
// slice rather than maps — fan-out is tiny (two directions of one branch in
// the common case, a handful under thread interleavings), so a linear scan
// costs a few compares where a map costs a hash per access, and the merge
// hot path is almost entirely such accesses.
type childRef struct {
	e      Edge
	visits int64
	node   *Node
}

// Node is one decision point in the execution tree.
type Node struct {
	// parent/in/depth place the node on its (immutable) root path: a node's
	// position never changes once created, so the open-frontier set derives
	// prefixes from these links instead of storing a copy per entry — the
	// whole tree shares one interned representation of every root prefix.
	parent *Node
	in     Edge
	depth  int32
	// dirty marks membership in the tree's delta working set (delta.go).
	// It sits in depth's padding word.
	dirty bool
	// kids holds each observed decision with its traversal count and
	// subtree, in first-observation order (Edges sorts on demand).
	kids []childRef
	// open holds the positions in Tree.open of this node's open frontiers
	// (at most one per half-observed branch ID, so almost always zero or
	// one) — the per-node bucket that replaces a tree-global hash map on
	// the merge hot path.
	open []int32
	// terminal counts executions that ended exactly at this node, one entry
	// per outcome in ascending outcome order: a handful of outcomes exist,
	// so a sorted slice reads and encodes in order where a map would hash
	// and sort.
	terminal []outcomeCount
	// infeasible records edges proven unreachable by symbolic analysis
	// (proof certificates; see internal/proof).
	infeasible map[Edge]bool
}

// outcomeCount is how many executions ended at a node with one outcome.
type outcomeCount struct {
	o prog.Outcome
	c int64
}

func newNode() *Node {
	return &Node{}
}

// newChild creates a node hanging off parent along e.
func newChild(parent *Node, e Edge) *Node {
	return &Node{parent: parent, in: e, depth: parent.depth + 1}
}

// kidIndex returns the slot of edge e, or -1.
func (n *Node) kidIndex(e Edge) int {
	for i := range n.kids {
		if n.kids[i].e == e {
			return i
		}
	}
	return -1
}

// addKid appends a new outgoing edge slot. The edge must not be present.
func (n *Node) addKid(e Edge, child *Node, visits int64) {
	n.kids = append(n.kids, childRef{e: e, visits: visits, node: child})
}

// Child returns the subtree along e, or nil.
func (n *Node) Child(e Edge) *Node {
	if i := n.kidIndex(e); i >= 0 {
		return n.kids[i].node
	}
	return nil
}

// Edges returns the observed outgoing edges in a stable order.
func (n *Node) Edges() []Edge {
	out := make([]Edge, len(n.kids))
	for i := range n.kids {
		out[i] = n.kids[i].e
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return !out[i].Taken && out[j].Taken
	})
	return out
}

// Visits returns the traversal count of edge e.
func (n *Node) Visits(e Edge) int64 {
	if i := n.kidIndex(e); i >= 0 {
		return n.kids[i].visits
	}
	return 0
}

// Terminals returns a copy of the per-outcome terminal counts.
func (n *Node) Terminals() map[prog.Outcome]int64 {
	out := make(map[prog.Outcome]int64, len(n.terminal))
	for _, tc := range n.terminal {
		out[tc.o] = tc.c
	}
	return out
}

// terminalCount returns how many executions ended at n with outcome o.
func (n *Node) terminalCount(o prog.Outcome) int64 {
	for _, tc := range n.terminal {
		if tc.o == o {
			return tc.c
		}
	}
	return 0
}

// terminalSlot returns the position of outcome o in n.terminal, inserting a
// zero count at its place in the order first when o is absent.
func (n *Node) terminalSlot(o prog.Outcome) int {
	i := 0
	for i < len(n.terminal) && n.terminal[i].o < o {
		i++
	}
	if i == len(n.terminal) || n.terminal[i].o != o {
		n.terminal = slices.Insert(n.terminal, i, outcomeCount{o: o})
	}
	return i
}

// markInfeasible attaches an infeasibility certificate to the unexplored
// direction e (both directions of e.ID at this node are then accounted
// for). Unexported on purpose: certificates must go through
// Tree.CertifyInfeasible, which also retires the frontier from the open
// set — a bare node-level mark would leave a stale entry.
func (n *Node) markInfeasible(e Edge) {
	if n.infeasible == nil {
		n.infeasible = make(map[Edge]bool)
	}
	n.infeasible[e] = true
}

// Infeasible reports whether e carries an infeasibility certificate.
func (n *Node) Infeasible(e Edge) bool { return n.infeasible[e] }

// fillPath writes the root prefix of n, read off its parent links, into dst,
// whose length is n's depth.
func fillPath(dst []Edge, n *Node) {
	for k := len(dst) - 1; k >= 0; k-- {
		dst[k] = n.in
		n = n.parent
	}
}

// frontierEntry is one open frontier in Tree.open, holding inline every part
// of its frontierLess key except the root path: a snapshot's scan reads the
// entries as one contiguous run of memory and touches a node only to break a
// tie on both rarity and depth. It stores no prefix — the node's parent links
// are the shared, interned root path.
type frontierEntry struct {
	n *Node
	// sib is the rarity signal: the explored sibling's visit count, which
	// Merge keeps current in place on every traversal of the sibling.
	sib     int64
	missing Edge
	depth   int32 // n.depth
}

// Tree is the collective execution tree for one program. It is safe for
// concurrent use: the hive ingests trace batches from many pods at once.
//
// The tree maintains its open-frontier set incrementally, as one flat
// unordered slice: Merge opens a frontier when it observes the first
// direction of a branch at a node (an append), retires it when the sibling
// direction arrives (a swap-remove), and stores its rarity signal
// (explored-sibling visits) in place whenever that changes;
// CertifyInfeasible retires the frontier its certificate discharges. Every
// one of those is O(1), and nothing is ordered until somebody asks:
// Frontiers(k) selects the top k by frontierLess in one pass over the slice
// under the read lock. A snapshot therefore costs O(open set) however the
// tree has been used since the last one — there is no ordered index for
// merge traffic to put out of repair, and no write for a reader to do.
type Tree struct {
	mu sync.RWMutex

	programID string
	root      *Node

	nodes      int64
	paths      int64 // distinct root-to-terminal paths (new-path merges)
	executions int64 // total merged executions
	outcomes   map[prog.Outcome]int64
	// cover is the set of observed directions — those with an edge slot
	// somewhere of visits > 0 — as a bitset indexed by ID<<1|taken: static
	// branch IDs are small and dense, so a bit (grown on demand, overflow
	// set for hostile IDs from decoded bytes) answers "ever taken?" with an
	// index. A count per direction would be bumped on every step of every
	// merge, and no reader asks how many. covered counts the set's members.
	cover         []uint64
	coverOverflow map[Edge]bool
	covered       int
	// open is the open frontier set, in no order (enumeration order never
	// reaches a caller: frontierLess is a total order). The nodes' open
	// buckets hold positions in it.
	open []frontierEntry
	// Delta tracking (delta.go): when tracking is on, nodes flip their
	// dirty flag on first change since the boundary and accumulate in
	// dirtyNodes.
	tracking   bool
	dirtyNodes []*Node
}

// New creates an empty tree for the program with the given ID.
func New(programID string) *Tree {
	return &Tree{
		programID: programID,
		root:      newNode(),
		nodes:     1,
		outcomes:  make(map[prog.Outcome]int64),
	}
}

// maxDenseCoverID bounds the dense coverage bitset: IDs at or beyond it
// (possible only in decoded hostile bytes — real programs have small
// branch spaces) fall into the overflow set instead of growing the bitset.
const maxDenseCoverID = 1 << 16

// coverBit locates a dense direction in the bitset: word w, bit mask.
func coverBit(e Edge) (w int, mask uint64) {
	idx := int(e.ID) << 1
	if e.Taken {
		idx |= 1
	}
	return idx >> 6, 1 << (idx & 63)
}

// addCover adds an edge's direction to the coverage set, reporting whether
// it is new. Callers add a direction when one of its slots has visits > 0.
func (t *Tree) addCover(e Edge) bool {
	if e.ID >= 0 && e.ID < maxDenseCoverID {
		w, mask := coverBit(e)
		if w >= len(t.cover) {
			t.cover = append(t.cover, make([]uint64, w+1-len(t.cover))...)
		}
		if t.cover[w]&mask != 0 {
			return false
		}
		t.cover[w] |= mask
		t.covered++
		return true
	}
	if t.coverOverflow[e] {
		return false
	}
	if t.coverOverflow == nil {
		t.coverOverflow = make(map[Edge]bool)
	}
	t.coverOverflow[e] = true
	t.covered++
	return true
}

// coveredLocked reports whether e's direction is in the coverage set. It
// never grows the bitset, so the pricer may ask under the read lock.
func (t *Tree) coveredLocked(e Edge) bool {
	if e.ID >= 0 && e.ID < maxDenseCoverID {
		w, mask := coverBit(e)
		return w < len(t.cover) && t.cover[w]&mask != 0
	}
	return t.coverOverflow[e]
}

// resetCover empties the coverage set.
func (t *Tree) resetCover() {
	clear(t.cover)
	t.coverOverflow = nil
	t.covered = 0
}

// markDirty flags a changed node into the delta working set.
func (t *Tree) markDirty(n *Node) {
	if t.tracking && !n.dirty {
		n.dirty = true
		t.dirtyNodes = append(t.dirtyNodes, n)
	}
}

// ProgramID returns the program this tree describes.
func (t *Tree) ProgramID() string { return t.programID }

// MergeResult reports what a merge changed.
type MergeResult struct {
	// NewPath is true when the execution followed a root-to-terminal path
	// never seen before.
	NewPath bool
	// NewNodes is the number of tree nodes created.
	NewNodes int
	// NewEdges is the number of previously unseen (branch, direction)
	// decisions — the branch-coverage gain.
	NewEdges int
	// Depth is the merged path's length in decisions.
	Depth int
}

// Merge folds one execution path (the trace's branch decisions plus its
// outcome) into the tree. This is the paper's Figure 3 operation: walk until
// the path diverges from the known tree (the lowest common ancestor), then
// paste the new suffix.
func (t *Tree) Merge(path []trace.BranchEvent, outcome prog.Outcome) MergeResult {
	return t.MergeN(path, outcome, 1)
}

// MergeN folds n executions of one path at once: every visit count along it,
// its terminal count, the outcome tally and the execution count go up by n,
// in one walk. n must be positive.
//
// Merging a sequence of executions distinct path by distinct path — each
// once, with its multiplicity, in order of first occurrence — leaves the
// tree byte-identical to merging them one by one. Every order-dependent
// effect of a merge happens at a path's first occurrence: node creation and
// so the kids' order, frontiers opened and retired (and so the open set's
// positions), the first traversal that adds a direction to the coverage
// set, and the order of the delta working set. A repeat of a path already
// merged only adds to counts, and counts are sums, so where the repeats land
// does not matter. A frontier's rarity signal is the explored sibling's
// current visit count whichever way it got there.
func (t *Tree) MergeN(path []trace.BranchEvent, outcome prog.Outcome, n int64) MergeResult {
	if n < 1 {
		panic("exectree: MergeN of a non-positive multiplicity")
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	res := MergeResult{Depth: len(path)}
	node := t.root
	for _, be := range path {
		e := Edge{ID: be.ID, Taken: be.Taken}
		t.markDirty(node)
		ci := node.kidIndex(e)
		isNew := ci < 0
		var child *Node
		if isNew {
			child = newChild(node, e)
			node.addKid(e, child, 0)
			ci = len(node.kids) - 1
			t.nodes++
			res.NewNodes++
			// e's first appearance closes the frontier that pointed at it
			// (if the sibling direction opened one earlier).
			if i := t.openIndex(node, e); i >= 0 {
				t.retireFrontier(i)
			}
		} else {
			child = node.kids[ci].node
		}
		// A slot of visits > 0 has its direction in the coverage set
		// already: only a first traversal — of a new slot, or of a decoded
		// one that carried 0 visits — can add to it.
		if node.kids[ci].visits == 0 && t.addCover(e) {
			res.NewEdges++
		}
		node.kids[ci].visits += n
		vis := node.kids[ci].visits
		sibling := Edge{ID: e.ID, Taken: !e.Taken}
		if i := t.openIndex(node, sibling); i >= 0 {
			// The explored side of an open frontier was traversed again:
			// its rarity signal grew.
			t.open[i].sib = vis
		} else if isNew && node.kidIndex(sibling) < 0 && !node.Infeasible(sibling) {
			t.openFrontier(node, sibling, vis)
		}
		node = child
	}
	ti := node.terminalSlot(outcome)
	if node.terminal[ti].c == 0 {
		res.NewPath = true
		t.paths++
	}
	node.terminal[ti].c += n
	t.markDirty(node)
	t.outcomes[outcome] += n
	t.executions += n
	return res
}

// Stats is a snapshot of tree-level statistics.
type Stats struct {
	Nodes        int64
	Paths        int64
	Executions   int64
	EdgesCovered int
	Outcomes     map[prog.Outcome]int64
}

// Stats returns a consistent snapshot.
func (t *Tree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := Stats{
		Nodes:        t.nodes,
		Paths:        t.paths,
		Executions:   t.executions,
		EdgesCovered: t.covered,
		Outcomes:     make(map[prog.Outcome]int64, len(t.outcomes)),
	}
	for k, v := range t.outcomes {
		out.Outcomes[k] = v
	}
	return out
}

// EdgeCoverage returns how many of the program's 2×NumBranches branch
// directions have been observed, as (covered, total).
func (t *Tree) EdgeCoverage(p *prog.Program) (covered, total int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.covered, 2 * p.NumBranches()
}

// CertifyInfeasible attaches an infeasibility certificate to the missing
// direction at the end of prefix, under the tree lock (safe against
// concurrent merges), and retires the frontier the certificate discharges
// from the open set. It reports whether the prefix still exists.
func (t *Tree) CertifyInfeasible(prefix []Edge, missing Edge) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.root
	for _, e := range prefix {
		n = n.Child(e)
		if n == nil {
			return false
		}
	}
	if n.Infeasible(missing) {
		return true // already certified
	}
	n.markInfeasible(missing)
	t.markDirty(n)
	if i := t.openIndex(n, missing); i >= 0 {
		t.retireFrontier(i)
	}
	return true
}

// Walk visits every node in depth-first order under the read lock. fn
// receives the path of edges from the root and the node; returning false
// prunes the subtree.
func (t *Tree) Walk(fn func(path []Edge, n *Node) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var rec func(path []Edge, n *Node)
	rec = func(path []Edge, n *Node) {
		if !fn(path, n) {
			return
		}
		for _, e := range n.Edges() {
			rec(append(path, e), n.Child(e))
		}
	}
	rec(nil, t.root)
}

// Frontier describes one unexplored branch direction: a node where branch
// ID has been seen going one way but not the other, along with how to get
// there. Frontiers are what the hive's guidance engine targets (§3.3) and
// what the proof engine must discharge as infeasible (§3.3).
type Frontier struct {
	// Prefix is the decision path from the root to the node.
	Prefix []Edge
	// Missing is the unexplored direction.
	Missing Edge
	// SiblingVisits is the traversal count of the explored direction — a
	// rarity signal (heavily-visited sibling with unexplored other side
	// suggests a biased input distribution, a prime steering target).
	SiblingVisits int64
}

// AppendKey appends the frontier's identity — its prefix, then its missing
// direction, each edge as the codec writes it (self-delimiting) — to dst.
// Two frontiers of one program have equal keys exactly when they are the
// same frontier, so anything that is a function of (program, prefix,
// missing) can be remembered under these bytes.
func (f Frontier) AppendKey(dst []byte) []byte {
	for _, e := range f.Prefix {
		dst = appendEdge(dst, e)
	}
	return appendEdge(dst, f.Missing)
}

// Frontiers enumerates the top limit unexplored branch directions,
// excluding those carrying infeasibility certificates, in rarity order
// (most-visited sibling first, ties broken deterministically).
//
// The result is one bounded selection over the flat open set under the read
// lock: a limit-entry heap keeps the best seen so far, an entry that loses to
// the heap's worst on rarity alone — nearly all of them, on a tree that has
// seen traffic — costs one compare and no allocation, and prefixes are
// materialized from the shared parent links for the winners only, outside
// the lock. The cost is O(open set) per snapshot, the same whether the
// frontiers' siblings were all re-traversed since the last snapshot or none
// was (BenchmarkFrontiersAdversarial has both), and a snapshot blocks no
// other reader.
//
// limit must be positive: every production consumer bounds its pull (the
// proof engine takes 64, guidance 4×max, cluster exploration a per-round
// batch), because the winners' prefixes are O(limit × depth). The
// debug/test-only full enumeration lives behind FrontiersAll; asking this
// path for it is a programming error and panics.
func (t *Tree) Frontiers(limit int) []Frontier {
	if limit <= 0 {
		panic("exectree: Frontiers(limit <= 0) is debug-only; bound the pull or use FrontiersAll")
	}
	return t.frontiers(limit)
}

// FrontiersAll enumerates the whole open frontier set, sorted — for tests,
// debugging, and reference comparisons only. Production code bounds its
// pulls through Frontiers.
func (t *Tree) FrontiersAll() []Frontier {
	return t.frontiers(0)
}

func (t *Tree) frontiers(limit int) []Frontier {
	t.mu.RLock()
	want := len(t.open)
	if limit > 0 && limit < want {
		want = limit
	}
	// top is a max-heap on compareEntries over the best want entries seen:
	// top[0] is the worst of them, the one the next better entry evicts.
	top := append(make([]frontierEntry, 0, want), t.open[:want]...)
	for i := want/2 - 1; i >= 0; i-- {
		siftDown(top, i)
	}
	for i := want; i < len(t.open); i++ {
		if e := &t.open[i]; e.sib >= top[0].sib && compareEntries(e, &top[0]) < 0 {
			top[0] = *e
			siftDown(top, 0)
		}
	}
	t.mu.RUnlock()
	slices.SortFunc(top, func(a, b frontierEntry) int { return compareEntries(&a, &b) })
	// Materialize outside the lock: parent links, in-edges, and depths are
	// immutable once a node exists. The prefixes share one allocation, each
	// capped to its own length so an append by a caller copies.
	edges := 0
	for i := range top {
		edges += int(top[i].depth)
	}
	backing := make([]Edge, edges)
	out := make([]Frontier, len(top))
	for i, e := range top {
		out[i] = Frontier{Missing: e.missing, SiblingVisits: e.sib}
		if e.depth == 0 {
			continue // the root's prefix is nil, as the walk has it
		}
		out[i].Prefix = backing[:e.depth:e.depth]
		backing = backing[e.depth:]
		fillPath(out[i].Prefix, e.n)
	}
	return out
}

// siftDown restores the max-heap property of h below slot i.
func siftDown(h []frontierEntry, i int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if compareEntries(&h[c], &h[worst]) > 0 {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// FrontiersByWalk recomputes the frontier set with a full depth-first walk
// under the read lock — the implementation before there was an open set,
// kept as the reference the open set is property-tested and benchmarked
// against.
func (t *Tree) FrontiersByWalk(limit int) []Frontier {
	var out []Frontier
	t.Walk(func(path []Edge, n *Node) bool {
		forEachHalfObserved(n, func(missing Edge, sib int64) {
			out = append(out, Frontier{
				Prefix:        append([]Edge(nil), path...),
				Missing:       missing,
				SiblingVisits: sib,
			})
		})
		return true
	})
	sortFrontiers(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// frontierLess imposes a deterministic total order on frontiers: rarity
// signal first, then shortest prefix, then lexicographic path and missing
// edge. Guidance output must not depend on map iteration order.
func frontierLess(sibA int64, prefA []Edge, missA Edge, sibB int64, prefB []Edge, missB Edge) bool {
	if sibA != sibB {
		return sibA > sibB
	}
	if len(prefA) != len(prefB) {
		return len(prefA) < len(prefB)
	}
	for k := range prefA {
		if prefA[k] != prefB[k] {
			return edgeLess(prefA[k], prefB[k])
		}
	}
	return edgeLess(missA, missB)
}

// sortFrontiers orders a materialized frontier slice by frontierLess.
func sortFrontiers(out []Frontier) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return frontierLess(a.SiblingVisits, a.Prefix, a.Missing, b.SiblingVisits, b.Prefix, b.Missing)
	})
}

// FrontierCount returns the number of open frontiers, O(1).
func (t *Tree) FrontierCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.open)
}

// --- open-set internals ---

// compareEdges orders edges by ID, the untaken direction first.
func compareEdges(a, b Edge) int {
	if a.ID != b.ID {
		if a.ID < b.ID {
			return -1
		}
		return 1
	}
	if a.Taken == b.Taken {
		return 0
	}
	if !a.Taken {
		return -1
	}
	return 1
}

// comparePaths orders two same-depth nodes by their root paths
// lexicographically, walking the shared parent links. The recursion
// ascends only to the lowest common ancestor: above it the nodes are
// identical and the comparison short-circuits.
func comparePaths(x, y *Node) int {
	if x == y {
		return 0
	}
	if c := comparePaths(x.parent, y.parent); c != 0 {
		return c
	}
	return compareEdges(x.in, y.in)
}

// compareEntries is frontierLess over open-set entries: rarity (desc), depth
// (asc), root path (lex), missing edge — without materializing prefixes.
func compareEntries(a, b *frontierEntry) int {
	if a.sib != b.sib {
		if a.sib > b.sib {
			return -1
		}
		return 1
	}
	if a.depth != b.depth {
		if a.depth < b.depth {
			return -1
		}
		return 1
	}
	if c := comparePaths(a.n, b.n); c != 0 {
		return c
	}
	return compareEdges(a.missing, b.missing)
}

// openIndex returns the position in t.open of n's open frontier toward
// missing, or -1.
func (t *Tree) openIndex(n *Node, missing Edge) int {
	for _, i := range n.open {
		if t.open[i].missing == missing {
			return int(i)
		}
	}
	return -1
}

// openFrontier adds a fresh open frontier at n. Callers hold the write lock.
func (t *Tree) openFrontier(n *Node, missing Edge, sib int64) {
	n.open = append(n.open, int32(len(t.open)))
	t.open = append(t.open, frontierEntry{n: n, sib: sib, missing: missing, depth: n.depth})
}

// retireFrontier removes the open frontier at position i by moving the last
// entry into its place. Callers hold the write lock.
func (t *Tree) retireFrontier(i int) {
	last := len(t.open) - 1
	bucket := t.open[i].n.open
	bucket[slices.Index(bucket, int32(i))] = bucket[len(bucket)-1]
	t.open[i].n.open = bucket[:len(bucket)-1]
	if i != last {
		t.open[i] = t.open[last]
		moved := t.open[i].n.open
		moved[slices.Index(moved, int32(last))] = int32(i)
	}
	t.open[last] = frontierEntry{}
	t.open = t.open[:last]
}

// rebuildFrontierLocked recomputes the open set from tree structure, one
// append per open frontier, with every node's open bucket carved from the
// decode's slab at its exact size. Decode and DecodeChain use it on a
// deserialized tree; callers must hold the write lock (or own the tree
// exclusively).
func (t *Tree) rebuildFrontierLocked(s *slab) {
	t.open = t.open[:0]
	var rec func(n *Node)
	rec = func(n *Node) {
		open := 0
		forEachHalfObserved(n, func(Edge, int64) { open++ })
		n.open = s.open.take(open)
		forEachHalfObserved(n, func(missing Edge, sib int64) {
			t.openFrontier(n, missing, sib)
		})
		for i := range n.kids {
			rec(n.kids[i].node)
		}
	}
	rec(t.root)
}

// forEachHalfObserved calls fn for every branch ID at n with exactly one
// observed direction and no certificate on the other — the node's open
// frontiers — passing the missing direction and the explored sibling's
// visit count. Visits in first-observation order; neither caller depends
// on it (both sort downstream: a snapshot by compareEntries, the walk by
// sortFrontiers).
func forEachHalfObserved(n *Node, fn func(missing Edge, sib int64)) {
	for i := range n.kids {
		e := n.kids[i].e
		sibling := Edge{ID: e.ID, Taken: !e.Taken}
		if n.kidIndex(sibling) >= 0 {
			continue // both directions observed
		}
		if n.Infeasible(sibling) {
			continue
		}
		fn(sibling, n.kids[i].visits)
	}
}

// Complete reports whether the tree has no frontiers left: every decision
// point has both directions either explored or certified infeasible. A
// complete tree is what turns the accumulated "test suite" into a proof
// (paper §3.3: "a complete exploration of all paths leads to a proof").
func (t *Tree) Complete() bool {
	return t.FrontierCount() == 0
}
