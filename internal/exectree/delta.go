package exectree

import (
	"encoding/binary"
	"fmt"

	"repro/internal/codec"
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
// The base is decoded without closing its nodes, the segments are overlaid,
// and then one walk closes every node, deriving the aggregates and the open
// set together: a segment's entries carry absolute per-node values, so
// nothing derived before the last one would survive it. The whole chain is
// decoded from one slab: the nodes and slots the deltas add come from the
// same chunks as the base's.
func DecodeChain(base []byte, deltas [][]byte) (*Tree, error) {
	if len(deltas) == 0 {
		return Decode(base)
	}
	var s slab
	t, err := decodeNodes(base, &s, nil)
	if err != nil {
		return nil, err
	}
	for i, d := range deltas {
		if err := t.applyDelta(d, &s); err != nil {
			return nil, fmt.Errorf("delta %d: %w", i, err)
		}
	}
	r := restore{slab: &s}
	r.walk(t, t.root)
	r.finish(t)
	return t, nil
}

// DeltaEntries returns how many node entries a delta segment (EncodeDelta
// bytes) holds — the dirty-set size it was written from — reading its
// header only.
func DeltaEntries(data []byte) (int, error) {
	d := codec.NewDecoder(data, ErrCodec, "tree delta")
	_, n := deltaHeader(&d)
	return n, d.Err()
}

// deltaHeader reads a delta segment's version, program ID and entry count.
func deltaHeader(d *codec.Decoder) (programID string, entries int) {
	if v := d.Byte(); d.Err() == nil && v != deltaVersion {
		d.Fail("delta version %d", v)
	}
	return d.String(), d.Count(1)
}

// applyDelta overlays one delta segment: every entry overwrites its node's
// terminal counts, certificates, and outgoing-edge visit counts with the
// absolute values recorded at encode time, creating missing nodes along the
// way. Aggregates and the open frontier set are not kept — DecodeChain
// derives both in one walk after the last segment. New nodes and slots come
// from s.
func (t *Tree) applyDelta(data []byte, s *slab) error {
	d := &treeDecoder{Decoder: codec.NewDecoder(data, ErrCodec, "tree delta"), slab: s}
	id, count := deltaHeader(&d.Decoder)
	if d.Err() == nil && id != t.programID {
		d.Fail("delta for %q applied to %q", id, t.programID)
	}
	// stack[i] is the node at depth i on the root path of the entry read
	// last: an entry keeps a prefix of it and descends its suffix from there.
	stack := []*Node{t.root}
	for ; count > 0 && d.Err() == nil; count-- {
		k := d.Uvarint()
		if d.Err() == nil && k >= uint64(len(stack)) {
			d.Fail("entry keeps %d of a %d-deep path", k, len(stack)-1)
		}
		keep, suffix := int(k), d.Count(1)
		if d.Err() == nil && keep+suffix > maxDecodeDepth {
			d.Fail("depth exceeds %d", maxDecodeDepth)
		}
		if d.Err() != nil {
			break
		}
		stack = stack[:keep+1]
		n := stack[keep]
		for ; suffix > 0; suffix-- {
			e := d.edge()
			if d.Err() != nil {
				return d.Err()
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
		d.terminals(n)
		clear(n.infeasible)
		for ni := d.Count(1); ni > 0; ni-- {
			e := d.edge()
			if d.Err() != nil {
				return d.Err()
			}
			n.markInfeasible(e)
		}
		nc := d.Count(1)
		if need := max(nc, len(n.kids)); cap(n.kids) < need {
			// The entry lists every outgoing edge the node has now, old ones
			// included: one carve holds them all.
			kids := s.kids.take(need)
			n.kids = append(kids, n.kids...)
		}
		for ; nc > 0; nc-- {
			e := d.edge()
			visits := int64(d.Uvarint())
			if d.Err() != nil {
				return d.Err()
			}
			if i := n.kidIndex(e); i >= 0 {
				n.kids[i].visits = visits
			} else {
				n.addKid(e, s.child(n, e), visits)
			}
		}
	}
	return d.Finish()
}
