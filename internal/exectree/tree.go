// Package exectree implements the collective execution tree of paper §3.2:
// the hive's dynamically built decode of a program's decision tree,
// assembled by merging naturally occurring execution paths. Every merged
// path came from a real execution, so it is feasible by construction and no
// constraint solving happens at merge time — the paper's central
// information-recycling argument.
package exectree

import (
	"fmt"
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
	// position never changes once created, so the frontier index derives
	// prefixes from these links instead of storing a copy per entry — the
	// whole tree shares one interned representation of every root prefix.
	parent *Node
	in     Edge
	depth  int32
	// kids holds each observed decision with its traversal count and
	// subtree, in first-observation order (Edges sorts on demand).
	kids []childRef
	// open holds this node's open-frontier index entries (at most one per
	// half-observed branch ID, so almost always zero or one) — the
	// per-node bucket that replaces a tree-global hash map on the merge
	// hot path.
	open []*frontierEntry
	// dirty marks membership in the tree's delta working set (delta.go).
	dirty bool
	// terminal counts executions that ended exactly at this node, per
	// outcome.
	terminal map[prog.Outcome]int64
	// infeasible records edges proven unreachable by symbolic analysis
	// (proof certificates; see internal/proof).
	infeasible map[Edge]bool
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

// openEntry returns the node's open-frontier entry for the missing
// direction, or nil.
func (n *Node) openEntry(missing Edge) *frontierEntry {
	for _, fe := range n.open {
		if fe.missing == missing {
			return fe
		}
	}
	return nil
}

// removeOpen unlinks fe from the node's open bucket.
func (n *Node) removeOpen(fe *frontierEntry) {
	for i, x := range n.open {
		if x == fe {
			n.open[i] = n.open[len(n.open)-1]
			n.open[len(n.open)-1] = nil
			n.open = n.open[:len(n.open)-1]
			return
		}
	}
}

// Terminals returns a copy of the per-outcome terminal counts.
func (n *Node) Terminals() map[prog.Outcome]int64 {
	out := make(map[prog.Outcome]int64, len(n.terminal))
	for k, v := range n.terminal {
		out[k] = v
	}
	return out
}

// markInfeasible attaches an infeasibility certificate to the unexplored
// direction e (both directions of e.ID at this node are then accounted
// for). Unexported on purpose: certificates must go through
// Tree.CertifyInfeasible, which also retires the frontier from the
// incremental index — a bare node-level mark would leave a stale index
// entry.
func (n *Node) markInfeasible(e Edge) {
	if n.infeasible == nil {
		n.infeasible = make(map[Edge]bool)
	}
	n.infeasible[e] = true
}

// Infeasible reports whether e carries an infeasibility certificate.
func (n *Node) Infeasible(e Edge) bool { return n.infeasible[e] }

// pathTo materializes the root prefix of n from its parent links. The root
// itself has a nil prefix (matching the walk-based enumeration).
func pathTo(n *Node) []Edge {
	if n.depth == 0 {
		return nil
	}
	out := make([]Edge, n.depth)
	for i := int(n.depth) - 1; i >= 0; i-- {
		out[i] = n.in
		n = n.parent
	}
	return out
}

// frontierEntry is the index record behind one open frontier. It stores no
// prefix — the node's parent links are the shared, interned root path — and
// doubles as a treap node of the rarity order (see Tree.frontierRoot).
type frontierEntry struct {
	n       *Node
	missing Edge
	// sib is the rarity signal the treap is currently ordered by (the
	// explored sibling's visit count as of the entry's last reposition).
	// It is the entry's search key: it must not change while the entry is
	// linked into the treap, or removals would descend the wrong way.
	sib int64
	// pendingSib is the deferred rarity update: Merge bumps it on every
	// sibling traversal (O(1)) instead of repositioning the entry
	// (O(log n) with path-compare ties), and the next ordered snapshot
	// batch-applies pending moves before reading. Zero means clean.
	pendingSib int64
	// retired marks an entry already unlinked (frontier closed); a stale
	// reposition for it is dropped.
	retired bool

	// Treap linkage (guarded by the tree lock).
	prio        uint64
	left, right *frontierEntry
}

// Tree is the collective execution tree for one program. It is safe for
// concurrent use: the hive ingests trace batches from many pods at once.
//
// The tree maintains its open-frontier set incrementally AND in rarity
// order: Merge opens a frontier when it observes the first direction of a
// branch at a node, retires it when the sibling direction arrives, and
// repositions it whenever its rarity signal (explored-sibling visits)
// changes; CertifyInfeasible retires the frontier its certificate
// discharges. The open set lives in a treap ordered by frontierLess, so
// Frontiers(k) reads the top k in O(k + log n) no matter how large the open
// set grows — the guidance hot path is independent of both tree size and
// open-set size.
type Tree struct {
	mu sync.RWMutex

	programID string
	root      *Node

	nodes      int64
	paths      int64 // distinct root-to-terminal paths (new-path merges)
	executions int64 // total merged executions
	outcomes   map[prog.Outcome]int64
	// cover is the per-direction traversal multiset, indexed by
	// ID<<1|taken: static branch IDs are small and dense, so a slice
	// (grown on demand, overflow map for hostile IDs from decoded bytes)
	// turns the per-edge coverage bump from a hash into an index. covered
	// counts the distinct directions seen.
	cover         []int64
	coverOverflow map[Edge]int64
	covered       int
	// The open frontier set lives in the nodes' open buckets (lookup) and
	// in frontierRoot, a treap in frontierLess order (rarity-ordered
	// snapshots); frontierCount tracks its size.
	frontierCount int
	frontierRoot  *frontierEntry
	// prioState seeds treap priorities deterministically, so rebuilds of
	// the same tree shape produce the same structure run to run.
	prioState uint64
	// repositions holds open entries whose rarity signal changed since the
	// last ordered snapshot (deferred treap moves; see frontierEntry).
	repositions []*frontierEntry
	// repositionCap bounds how many deferred moves one snapshot applies
	// (non-positive = unbounded); the backlog carries over. Entries still
	// pending are merged into the snapshot via the overlay in frontiers, so
	// results stay exact regardless of the cap.
	repositionCap int
	// Delta tracking (delta.go): when tracking is on, nodes flip their
	// dirty flag on first change since the boundary and accumulate in
	// dirtyNodes.
	tracking   bool
	dirtyNodes []*Node
	// onCertify, when set, observes every newly minted infeasibility
	// certificate (hive journaling). Called under the write lock; the
	// prefix slice is the caller's and must not be retained.
	onCertify func(prefix []Edge, missing Edge)
}

// New creates an empty tree for the program with the given ID.
func New(programID string) *Tree {
	return &Tree{
		programID:     programID,
		root:          newNode(),
		nodes:         1,
		outcomes:      make(map[prog.Outcome]int64),
		prioState:     0x9e3779b97f4a7c15,
		repositionCap: defaultRepositionFlushCap,
	}
}

// defaultRepositionFlushCap bounds the deferred rarity moves applied per
// Frontiers snapshot. Each move is an O(log n) treap unlink/relink under the
// write lock; after a long merge-only stretch the backlog can reach the open
// set's size, and draining it all at once turns a nominally O(k + log n)
// snapshot into an unbounded write-lock stall. The cap amortizes the drain
// across snapshots; the pending overlay keeps every snapshot exact anyway.
const defaultRepositionFlushCap = 1024

// SetRepositionFlushCap overrides how many deferred rarity moves one
// Frontiers snapshot applies to the index; n <= 0 removes the bound. The cap
// trades per-snapshot write-lock hold time against backlog length — results
// are identical at any setting.
func (t *Tree) SetRepositionFlushCap(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.repositionCap = n
}

// maxDenseCoverID bounds the dense coverage slice: IDs at or beyond it
// (possible only in decoded hostile bytes — real programs have small
// branch spaces) fall into the overflow map instead of growing the slice.
const maxDenseCoverID = 1 << 16

// addCover bumps an edge's coverage count by v, reporting whether the
// direction is new. Zero-visit bumps (possible only in degenerate decoded
// bytes) do not count as coverage.
func (t *Tree) addCover(e Edge, v int64) bool {
	if v == 0 {
		return false
	}
	if e.ID >= 0 && e.ID < maxDenseCoverID {
		idx := int(e.ID) << 1
		if e.Taken {
			idx |= 1
		}
		if idx >= len(t.cover) {
			grown := make([]int64, idx+16)
			copy(grown, t.cover)
			t.cover = grown
		}
		isNew := t.cover[idx] == 0
		t.cover[idx] += v
		if isNew {
			t.covered++
		}
		return isNew
	}
	if t.coverOverflow == nil {
		t.coverOverflow = make(map[Edge]int64)
	}
	isNew := t.coverOverflow[e] == 0
	t.coverOverflow[e] += v
	if isNew {
		t.covered++
	}
	return isNew
}

// resetCover clears the coverage multiset.
func (t *Tree) resetCover() {
	t.cover = t.cover[:0]
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
	t.mu.Lock()
	defer t.mu.Unlock()

	res := MergeResult{Depth: len(path)}
	node := t.root
	for _, be := range path {
		e := Edge{ID: be.ID, Taken: be.Taken}
		if t.addCover(e, 1) {
			res.NewEdges++
		}
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
			if fe := node.openEntry(e); fe != nil {
				t.retireEntry(fe)
			}
		} else {
			child = node.kids[ci].node
		}
		node.kids[ci].visits++
		vis := node.kids[ci].visits
		sibling := Edge{ID: e.ID, Taken: !e.Taken}
		if fe := node.openEntry(sibling); fe != nil {
			// The explored side of an open frontier was traversed again: its
			// rarity signal grew. Record the move instead of paying the
			// O(log n) reposition here — later ordered snapshots apply
			// pending moves in bounded batches (flushRepositionsLocked) and
			// overlay whatever is still queued.
			if fe.pendingSib == 0 {
				t.repositions = append(t.repositions, fe)
			}
			fe.pendingSib = vis
		} else if isNew && node.kidIndex(sibling) < 0 && !node.Infeasible(sibling) {
			t.openFrontier(node, sibling, vis)
		}
		node = child
	}
	if node.terminal == nil {
		node.terminal = make(map[prog.Outcome]int64, 2)
	}
	if node.terminal[outcome] == 0 {
		res.NewPath = true
		t.paths++
	}
	node.terminal[outcome]++
	t.markDirty(node)
	t.outcomes[outcome]++
	t.executions++
	return res
}

// Root returns the root node. Callers must not mutate the tree structure;
// read access is safe only while no Merge is running unless the caller holds
// a snapshot via Walk.
func (t *Tree) Root() *Node { return t.root }

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
// from the incremental index. It reports whether the prefix still exists.
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
		return true // already certified; nothing new to observe
	}
	n.markInfeasible(missing)
	t.markDirty(n)
	if fe := n.openEntry(missing); fe != nil {
		t.retireEntry(fe)
	}
	if t.onCertify != nil {
		t.onCertify(prefix, missing)
	}
	return true
}

// SetCertifyObserver registers fn to observe every newly minted
// infeasibility certificate (nil unregisters). The hive uses it to journal
// certificates no matter which engine mints them — the prover discharging
// frontiers or the guidance generator refuting one. fn runs under the tree
// write lock and must not call back into the tree or retain the prefix
// slice.
func (t *Tree) SetCertifyObserver(fn func(prefix []Edge, missing Edge)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onCertify = fn
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

// Frontiers enumerates the top limit unexplored branch directions,
// excluding those carrying infeasibility certificates, in rarity order
// (most-visited sibling first, ties broken deterministically).
//
// The result is served from the rarity-ordered treap: a limited snapshot
// reads the first limit entries in order — O(limit + log n) plus a bounded
// batch of deferred rarity moves (SetRepositionFlushCap) — regardless of
// how large the open set is, and prefixes are materialized from the shared
// parent links outside the lock. Moves still queued past the cap are
// overlaid onto the snapshot at their effective rarity, so the cap never
// changes what a snapshot returns, only how much index repair it performs.
//
// limit must be positive: every production consumer bounds its pull (the
// proof engine takes 64, guidance 4×max, cluster exploration a per-round
// batch), because an unlimited snapshot is O(open set) and the open set can
// grow with the tree. The debug/test-only full enumeration lives behind
// FrontiersAll; asking this path for it is a programming error and panics.
func (t *Tree) Frontiers(limit int) []Frontier {
	if limit <= 0 {
		panic("exectree: Frontiers(limit <= 0) is debug-only; bound the pull or use FrontiersAll")
	}
	return t.frontiers(limit)
}

// FrontiersAll enumerates the whole open frontier set — O(open set), for
// tests, debugging, and reference comparisons only. Production code bounds
// its pulls through Frontiers.
func (t *Tree) FrontiersAll() []Frontier {
	return t.frontiers(0)
}

func (t *Tree) frontiers(limit int) []Frontier {
	type cand struct {
		n       *Node
		missing Edge
		sib     int64
	}
	// Write lock: the snapshot first applies deferred rarity moves, up to
	// the flush cap. Snapshots are O(limit + cap·log n), so the exclusivity
	// window is bounded next to the merge traffic it relieves.
	t.mu.Lock()
	t.flushRepositionsLocked(t.repositionCap)
	want := t.frontierCount
	if limit > 0 && limit < want {
		want = limit
	}
	cands := make([]cand, 0, want+len(t.repositions))
	// Overlay for the still-pending backlog: those entries sit in the treap
	// under a stale key, but rarity only grows, so their true rank is at or
	// before their treap rank. Collecting all of them (at their effective
	// key) plus the top want clean entries is therefore a superset of the
	// true top want; the sort below re-ranks and the cut makes it exact.
	for _, fe := range t.repositions {
		if fe.retired || fe.pendingSib == 0 {
			continue
		}
		cands = append(cands, cand{n: fe.n, missing: fe.missing, sib: fe.pendingSib})
	}
	taken := 0
	var walk func(fe *frontierEntry) bool
	walk = func(fe *frontierEntry) bool {
		if fe == nil {
			return true
		}
		if !walk(fe.left) {
			return false
		}
		if taken >= want {
			return false
		}
		if fe.pendingSib == 0 {
			cands = append(cands, cand{n: fe.n, missing: fe.missing, sib: fe.sib})
			taken++
		}
		return walk(fe.right)
	}
	walk(t.frontierRoot)
	t.mu.Unlock()
	// Materialize outside the lock: parent links, in-edges, and depths are
	// immutable once a node exists.
	out := make([]Frontier, len(cands))
	for i, c := range cands {
		out[i] = Frontier{
			Prefix:        pathTo(c.n),
			Missing:       c.missing,
			SiblingVisits: c.sib,
		}
	}
	sortFrontiers(out)
	if len(out) > want {
		out = out[:want]
	}
	return out
}

// FrontiersByWalk recomputes the frontier set with a full depth-first walk
// under the read lock — the pre-index implementation, kept as the reference
// the incremental index is property-tested and benchmarked against.
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
	return t.frontierCount
}

// --- rarity-ordered index internals (all under the write lock) ---

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

// compareEntries is frontierLess over index entries: rarity (desc), depth
// (asc), root path (lex), missing edge — without materializing prefixes.
func compareEntries(a, b *frontierEntry) int {
	if a == b {
		return 0
	}
	if a.sib != b.sib {
		if a.sib > b.sib {
			return -1
		}
		return 1
	}
	if a.n != b.n {
		if a.n.depth != b.n.depth {
			if a.n.depth < b.n.depth {
				return -1
			}
			return 1
		}
		if c := comparePaths(a.n, b.n); c != 0 {
			return c
		}
	}
	return compareEdges(a.missing, b.missing)
}

// nextPrio draws the next deterministic treap priority (splitmix64).
func (t *Tree) nextPrio() uint64 {
	t.prioState += 0x9e3779b97f4a7c15
	z := t.prioState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// openFrontier creates and indexes a fresh open-frontier entry at n.
func (t *Tree) openFrontier(n *Node, missing Edge, sib int64) {
	fe := &frontierEntry{n: n, missing: missing, sib: sib, prio: t.nextPrio()}
	n.open = append(n.open, fe)
	t.frontierRoot = treapInsert(t.frontierRoot, fe)
	t.frontierCount++
}

// retireEntry removes fe from its node's open bucket and the rarity treap
// (by its current key — any pending reposition is dropped via the retired
// mark).
func (t *Tree) retireEntry(fe *frontierEntry) {
	fe.n.removeOpen(fe)
	t.frontierRoot = treapRemove(t.frontierRoot, fe)
	fe.left, fe.right = nil, nil
	fe.retired = true
	t.frontierCount--
}

// flushRepositionsLocked applies deferred rarity moves — each pending entry
// is unlinked at its old key and reinserted at the new one — stopping after
// max actual moves (max <= 0 = no bound); the rest stay queued for later
// snapshots. Retired and no-op entries are always dropped for free. Callers
// hold the write lock. Amortization: merges record moves in O(1) and the
// ordered-snapshot consumer pays O(min(pending, max) · log n), instead of
// every merge paying O(log n) — under fleet ingest, snapshots (guidance
// pulls) are orders of magnitude rarer than merges.
func (t *Tree) flushRepositionsLocked(max int) {
	moved := 0
	i := len(t.repositions)
	for i > 0 && (max <= 0 || moved < max) {
		i--
		fe := t.repositions[i]
		t.repositions[i] = nil
		if fe.retired || fe.pendingSib == 0 || fe.pendingSib == fe.sib {
			fe.pendingSib = 0
			continue
		}
		t.frontierRoot = treapRemove(t.frontierRoot, fe)
		fe.left, fe.right = nil, nil
		fe.sib = fe.pendingSib
		fe.pendingSib = 0
		t.frontierRoot = treapInsert(t.frontierRoot, fe)
		moved++
	}
	t.repositions = t.repositions[:i]
}

func treapInsert(root, fe *frontierEntry) *frontierEntry {
	if root == nil {
		return fe
	}
	if compareEntries(fe, root) < 0 {
		root.left = treapInsert(root.left, fe)
		if root.left.prio > root.prio {
			root = rotateRight(root)
		}
	} else {
		root.right = treapInsert(root.right, fe)
		if root.right.prio > root.prio {
			root = rotateLeft(root)
		}
	}
	return root
}

func treapRemove(root, fe *frontierEntry) *frontierEntry {
	if root == nil {
		return nil
	}
	c := compareEntries(fe, root)
	switch {
	case c < 0:
		root.left = treapRemove(root.left, fe)
	case c > 0:
		root.right = treapRemove(root.right, fe)
	default:
		return treapJoin(root.left, root.right)
	}
	return root
}

// treapJoin merges two treaps where every key in l precedes every key in r.
func treapJoin(l, r *frontierEntry) *frontierEntry {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio:
		l.right = treapJoin(l.right, r)
		return l
	default:
		r.left = treapJoin(l, r.left)
		return r
	}
}

func rotateRight(n *frontierEntry) *frontierEntry {
	l := n.left
	n.left = l.right
	l.right = n
	return l
}

func rotateLeft(n *frontierEntry) *frontierEntry {
	r := n.right
	n.right = r.left
	r.left = n
	return r
}

// rebuildFrontierLocked recomputes the index from tree structure. Decode
// uses it to restore the index of a deserialized tree; callers must hold the
// write lock (or own the tree exclusively).
func (t *Tree) rebuildFrontierLocked() {
	t.frontierRoot = nil
	t.frontierCount = 0
	t.repositions = t.repositions[:0]
	var rec func(n *Node)
	rec = func(n *Node) {
		n.open = nil
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
// on it (both sort downstream: the treap by comparator, the walk by
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
