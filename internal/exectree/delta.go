package exectree

import (
	"encoding/binary"
	"fmt"

	"repro/internal/prog"
)

// Incremental (delta) tree snapshots.
//
// A full tree snapshot (Encode) is O(tree); on huge trees that cost lands
// inside the hive's checkpoint gate and stalls ingestion. Delta tracking
// bounds it to the changes since the last boundary: the tree records every
// node whose counts or structure changed since then, and EncodeDelta
// serializes only those nodes — each as its full current state (terminal
// counts, certificates, outgoing edges with absolute visit counts), so
// applying a delta is an idempotent overwrite and a chain of deltas applied
// in order over the base snapshot reconstructs the live tree exactly (see
// DecodeChain; property-tested in delta_test.go).
//
// Segment layout (deltaVersion 2):
//
//	version byte | program ID (uvarint length + bytes) | entry count | entries
//
// Entries are the dirty nodes in Encode's pre-order (children in edge
// order), each written relative to the entry before it:
//
//	keep    uvarint  depth of the root path shared with the previous entry
//	suffix  uvarint  number of edges from there down to this node
//	edges   suffix × edge
//	body    terminal counts, certificates, outgoing edges + visits
//	        (what Encode writes for a node, without the children's subtrees)
//
// The reader keeps the previous entry's root path as a node stack and
// descends only the suffix. Because the order is a pre-order of the union of
// the dirty nodes' root paths, every edge of that union is written exactly
// once as a suffix edge, so a segment costs
//
//	header + Σ bodies + Σ (keep, suffix) + (edges on dirty paths)
//
// bytes: O(nodes on dirty paths), never O(Σ depth). With every node dirty
// each entry's suffix is its own in-edge, so the segment is the full Encode
// of the same nodes plus one entry header (keep, suffix, in-edge) a node.

// deltaVersion is bumped on any serialization-incompatible change to the
// delta encoding, and is the only version read.
const deltaVersion = 2

// SetDeltaTracking turns dirty-node recording on or off. Turning it on (or
// on again) establishes a fresh delta boundary: the dirty set is cleared,
// so the next EncodeDelta captures exactly the changes from this point.
// The hive calls it right after a full checkpoint (the base the next delta
// builds on) and right after restoring a snapshot chain at recovery —
// journal-suffix replay then lands in the first post-recovery delta.
func (t *Tree) SetDeltaTracking(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clearDirtyLocked()
	t.tracking = on
}

// clearDirtyLocked unflags every dirty node and empties the working set.
func (t *Tree) clearDirtyLocked() {
	for _, n := range t.dirtyNodes {
		n.dirty = false
	}
	t.dirtyNodes = t.dirtyNodes[:0]
}

// DirtyNodes returns the size of the pending delta working set.
func (t *Tree) DirtyNodes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.dirtyNodes)
}

// EncodeDelta serializes every node changed since the last delta boundary,
// in O(nodes on the changed nodes' root paths) — it never walks the whole
// tree. It returns nil when delta tracking is off (callers fall back to a
// full snapshot). The dirty set is NOT cleared: callers call ResetDelta once
// the delta is durable, so a failed snapshot write loses nothing.
func (t *Tree) EncodeDelta() []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.tracking {
		return nil
	}
	enc := deltaEncoder{
		treeEncoder: treeEncoder{buf: make([]byte, 0, 64+16*len(t.dirtyNodes))},
		via:         make(map[*Node]bool),
	}
	// The walk below descends from the root through dirty nodes. A merge
	// dirties its whole path, so usually every ancestor of a dirty node is
	// dirty too; a certificate dirties one node alone, and the clean
	// ancestors that lead to it are noted here.
	for _, n := range t.dirtyNodes {
		for a := n.parent; a != nil && !a.dirty && !enc.via[a]; a = a.parent {
			enc.via[a] = true
		}
	}
	enc.header(deltaVersion, t.programID)
	enc.buf = binary.AppendUvarint(enc.buf, uint64(len(t.dirtyNodes)))
	enc.walk(t.root)
	return enc.buf
}

// deltaEncoder walks the union of the dirty nodes' root paths in pre-order
// and writes an entry for each dirty node it passes.
type deltaEncoder struct {
	treeEncoder
	// via holds the clean nodes with a dirty node below them.
	via map[*Node]bool
	// path is the root path of the node being visited; keep is how much of
	// it the next entry shares with the entry written last.
	path []Edge
	keep int
}

func (enc *deltaEncoder) walk(n *Node) {
	depth := len(enc.path)
	base := enc.pushKidOrder(n)
	if n.dirty {
		enc.buf = binary.AppendUvarint(enc.buf, uint64(enc.keep))
		enc.buf = binary.AppendUvarint(enc.buf, uint64(depth-enc.keep))
		for _, e := range enc.path[enc.keep:] {
			enc.buf = appendEdge(enc.buf, e)
		}
		enc.state(n)
		for i := base; i < base+len(n.kids); i++ {
			k := &n.kids[enc.order[i]]
			enc.buf = appendEdge(enc.buf, k.e)
			enc.buf = binary.AppendUvarint(enc.buf, uint64(k.visits))
		}
		enc.keep = depth
	}
	for i := base; i < base+len(n.kids); i++ {
		k := &n.kids[enc.order[i]]
		if !k.node.dirty && !enc.via[k.node] {
			continue
		}
		// Whatever is written next lies under n or after it: it shares
		// n's root path with the last entry and no more.
		if enc.keep > depth {
			enc.keep = depth
		}
		enc.path = append(enc.path, k.e)
		enc.walk(k.node)
		enc.path = enc.path[:depth]
	}
	enc.order = enc.order[:base]
}

// ResetDelta clears the dirty set, establishing a new delta boundary.
// Callers invoke it after the delta produced by EncodeDelta is durable.
func (t *Tree) ResetDelta() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clearDirtyLocked()
}

// DecodeChain reconstructs a tree from a base snapshot (Encode bytes) plus
// an ordered chain of delta segments (EncodeDelta bytes). The result is
// bit-for-bit identical to the live tree that wrote the chain: node counts,
// aggregates, and the open frontier set are all rebuilt.
//
// The whole chain is decoded from one slab: the nodes and slots the deltas
// add come from the same chunks as the base's.
func DecodeChain(base []byte, deltas [][]byte) (*Tree, error) {
	if len(deltas) == 0 {
		return Decode(base)
	}
	var s slab
	t, err := decodeNodes(base, &s)
	if err != nil {
		return nil, err
	}
	for i, d := range deltas {
		if err := t.applyDelta(d, &s); err != nil {
			return nil, fmt.Errorf("delta %d: %w", i, err)
		}
	}
	t.recomputeAggregatesLocked()
	t.rebuildFrontierLocked(&s)
	return t, nil
}

// applyDelta overlays one delta segment: every entry overwrites its node's
// terminal counts, certificates, and outgoing-edge visit counts with the
// absolute values recorded at encode time, creating missing nodes along the
// way. Aggregates and the open frontier set are left stale — DecodeChain
// recomputes them once after the last segment. New nodes and slots come from
// s.
func (t *Tree) applyDelta(data []byte, s *slab) error {
	d := &treeDecoder{buf: data, slab: s}
	if version := d.byte(); d.err == nil && version != deltaVersion {
		return fmt.Errorf("%w: delta version %d", ErrCodec, version)
	}
	if id := d.string(); d.err == nil && id != t.programID {
		return fmt.Errorf("%w: delta for %q applied to %q", ErrCodec, id, t.programID)
	}
	// stack[i] is the node at depth i on the root path of the entry read
	// last: an entry keeps a prefix of it and descends its suffix from there.
	stack := []*Node{t.root}
	for count := d.length(); count > 0 && d.err == nil; count-- {
		k := d.uvarint()
		if k >= uint64(len(stack)) {
			return fmt.Errorf("%w: delta entry keeps %d of a %d-deep path", ErrCodec, k, len(stack)-1)
		}
		keep := int(k)
		suffix := d.length()
		if d.err != nil {
			break
		}
		if keep+suffix > maxDecodeDepth {
			return fmt.Errorf("%w: depth exceeds %d", ErrCodec, maxDecodeDepth)
		}
		stack = stack[:keep+1]
		n := stack[keep]
		for ; suffix > 0; suffix-- {
			e := d.edge()
			if d.err != nil {
				return d.err
			}
			child := n.Child(e)
			if child == nil {
				child = s.child(n, e)
				n.addKid(e, child, 0)
			}
			stack = append(stack, child)
			n = child
		}

		// What a node already holds is reused: most entries overwrite a node
		// the base or an earlier segment filled in.
		if err := d.terminals(n); err != nil {
			return err
		}
		clear(n.infeasible)
		for ni := d.length(); ni > 0; ni-- {
			e := d.edge()
			if d.err != nil {
				return d.err
			}
			n.markInfeasible(e)
		}
		nc := d.length()
		if need := max(nc, len(n.kids)); cap(n.kids) < need {
			// The entry lists every outgoing edge the node has now, old ones
			// included: one carve holds them all.
			kids := s.kids.take(need)
			n.kids = append(kids, n.kids...)
		}
		for ; nc > 0; nc-- {
			e := d.edge()
			visits := int64(d.uvarint())
			if d.err != nil {
				return d.err
			}
			if i := n.kidIndex(e); i >= 0 {
				n.kids[i].visits = visits
			} else {
				n.addKid(e, s.child(n, e), visits)
			}
		}
	}
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("%w: %d trailing delta bytes", ErrCodec, len(d.buf)-d.pos)
	}
	return nil
}

// recomputeAggregatesLocked rebuilds the tree-level aggregates (node count,
// path/execution/outcome totals, edge coverage) from node state. Used after
// overlaying delta segments, whose entries carry absolute per-node values
// but no aggregate bookkeeping.
func (t *Tree) recomputeAggregatesLocked() {
	t.nodes = 0
	t.paths = 0
	t.executions = 0
	t.outcomes = make(map[prog.Outcome]int64)
	t.resetCover()
	var rec func(n *Node)
	rec = func(n *Node) {
		t.nodes++
		for _, tc := range n.terminal {
			t.outcomes[tc.o] += tc.c
			t.executions += tc.c
			t.paths++
		}
		for i := range n.kids {
			if n.kids[i].visits > 0 {
				t.addCover(n.kids[i].e)
			}
			rec(n.kids[i].node)
		}
	}
	rec(t.root)
}
