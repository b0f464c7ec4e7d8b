package exectree

import (
	"encoding/binary"
	"errors"
	"slices"
	"sort"

	"repro/internal/codec"
	"repro/internal/prog"
)

// codecVersion is bumped on any serialization-incompatible change.
const codecVersion = 1

// ErrCodec is wrapped by malformed tree encodings.
var ErrCodec = errors.New("exectree: malformed encoding")

// Encode serializes the tree (hive persistence / snapshot shipping). The
// format is a preorder walk with varint-encoded edges, visit counts,
// terminal outcome counts, and infeasibility certificates.
func (t *Tree) Encode() []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()

	enc := treeEncoder{buf: make([]byte, 0, 64+32*t.nodes)}
	enc.header(codecVersion, t.programID)
	enc.node(t.root)
	return enc.buf
}

// treeEncoder is what one encoding walk shares: the output, and a stack of
// per-node child orders so that visiting a node's children in edge order
// allocates nothing.
type treeEncoder struct {
	buf   []byte
	order []int32
}

func (enc *treeEncoder) header(version byte, programID string) {
	enc.buf = append(enc.buf, version)
	enc.buf = binary.AppendUvarint(enc.buf, uint64(len(programID)))
	enc.buf = append(enc.buf, programID...)
}

func (enc *treeEncoder) node(n *Node) {
	enc.state(n)
	base := enc.pushKidOrder(n)
	for i := base; i < base+len(n.kids); i++ {
		k := &n.kids[enc.order[i]]
		enc.buf = appendEdge(enc.buf, k.e)
		enc.buf = binary.AppendUvarint(enc.buf, uint64(k.visits))
		enc.node(k.node)
	}
	enc.order = enc.order[:base]
}

// state writes what a node holds itself — terminal outcome counts,
// infeasibility certificates — and the number of its outgoing edges. Full
// snapshots and delta entries share it.
func (enc *treeEncoder) state(n *Node) {
	buf := binary.AppendUvarint(enc.buf, uint64(len(n.terminal)))
	for _, tc := range n.terminal {
		buf = append(buf, byte(tc.o))
		buf = binary.AppendUvarint(buf, uint64(tc.c))
	}
	buf = binary.AppendUvarint(buf, uint64(len(n.infeasible)))
	for _, e := range orderedEdges(n.infeasible) {
		buf = appendEdge(buf, e)
	}
	enc.buf = binary.AppendUvarint(buf, uint64(len(n.kids)))
}

// pushKidOrder pushes n's child slots onto the order stack, sorted by edge,
// and returns where they start. Callers pop them when they are done with
// the node, and index enc.order afresh on every use: a visit to a child
// pushes in between and may move the stack.
func (enc *treeEncoder) pushKidOrder(n *Node) int {
	base := len(enc.order)
	for i := range n.kids {
		enc.order = append(enc.order, int32(i))
	}
	if own := enc.order[base:]; len(own) > 1 {
		slices.SortFunc(own, func(a, b int32) int { return compareEdges(n.kids[a].e, n.kids[b].e) })
	}
	return base
}

func appendEdge(buf []byte, e Edge) []byte {
	v := uint64(e.ID) << 1
	if e.Taken {
		v |= 1
	}
	return binary.AppendUvarint(buf, v)
}

// Decode reconstructs a tree serialized by Encode in one pass: the decode
// closes each node once it has read the node's certificates and every
// child, and closing it adds the node to the tree's aggregates and opens its
// half-observed directions. No walk of the tree follows the decode.
func Decode(data []byte) (*Tree, error) {
	var s slab
	r := restore{slab: &s}
	t, err := decodeNodes(data, &s, &r)
	if err != nil {
		return nil, err
	}
	r.finish(t)
	return t, nil
}

// decodeNodes builds the nodes an encoding holds, closing each into r. With
// r nil it builds them only: the tree's aggregates stay zero and its open
// set empty, for DecodeChain to derive in one walk once the last segment has
// been overlaid. Nodes, child slots, terminal counts and open buckets come
// from s.
func decodeNodes(data []byte, s *slab, r *restore) (*Tree, error) {
	d := &treeDecoder{Decoder: codec.NewDecoder(data, ErrCodec, "tree"), slab: s, restore: r}
	if v := d.Byte(); d.Err() == nil && v != codecVersion {
		d.Fail("version %d", v)
	}
	programID := d.String()
	if d.Err() != nil {
		return nil, d.Err()
	}
	t := New(programID)
	t.nodes = 0
	t.root = d.node(t, nil, Edge{}, 0)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return t, nil
}

const maxDecodeDepth = 1 << 16

// treeDecoder reads full snapshots and delta segments into nodes carved
// from slab.
type treeDecoder struct {
	codec.Decoder
	slab    *slab
	restore *restore // closes each node decoded, when set
}

func (d *treeDecoder) edge() Edge {
	v := d.Uvarint()
	return Edge{ID: int32(v >> 1), Taken: v&1 == 1}
}

// node reads a node and its subtree. It returns nil once the decoder holds
// an error.
func (d *treeDecoder) node(t *Tree, parent *Node, in Edge, depth int) *Node {
	if depth > maxDecodeDepth {
		d.Fail("depth exceeds %d", maxDecodeDepth)
		return nil
	}
	n := d.slab.node()
	if parent != nil {
		n.parent, n.in, n.depth = parent, in, parent.depth+1
	}
	d.terminals(n)
	for ni := d.Count(1); ni > 0; ni-- {
		e := d.edge()
		if d.Err() != nil {
			return nil
		}
		n.markInfeasible(e)
	}
	nc := d.Count(1)
	if d.Err() != nil {
		return nil
	}
	n.kids = d.slab.kids.take(nc)
	for i := 0; i < nc; i++ {
		e := d.edge()
		visits := int64(d.Uvarint())
		if d.Err() != nil {
			return nil
		}
		child := d.node(t, n, e, depth+1)
		if child == nil {
			return nil
		}
		if n.kidIndex(e) >= 0 {
			d.Fail("duplicate edge %v", e)
			return nil
		}
		n.addKid(e, child, visits)
	}
	if d.restore != nil {
		d.restore.close(t, n)
	}
	return n
}

// terminals reads a node's terminal counts over whatever n holds: into
// n.terminal's own room when it has enough (a delta entry overwriting a node
// the base filled in), else into room carved from the slab. Encode writes
// the outcomes in ascending order, and a decode holds them to it: the slice
// is kept sorted, and a repeated outcome would be counted twice.
func (d *treeDecoder) terminals(n *Node) {
	nt := d.Count(1)
	if cap(n.terminal) >= nt {
		n.terminal = n.terminal[:0]
	} else {
		n.terminal = d.slab.terms.take(nt)
	}
	for i := 0; i < nt; i++ {
		o := prog.Outcome(d.Byte())
		c := int64(d.Uvarint())
		if d.Err() != nil {
			return
		}
		if i > 0 && o <= n.terminal[i-1].o {
			d.Fail("terminal outcome %d after %d", o, n.terminal[i-1].o)
			return
		}
		n.terminal = append(n.terminal, outcomeCount{o: o, c: c})
	}
}

func orderedEdges(m map[Edge]bool) []Edge {
	if len(m) == 0 {
		return nil
	}
	out := make([]Edge, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return edgeLess(out[i], out[j]) })
	return out
}

func edgeLess(a, b Edge) bool {
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return !a.Taken && b.Taken
}
