package exectree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

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

// Decode reconstructs a tree serialized by Encode.
func Decode(data []byte) (*Tree, error) {
	var s slab
	t, err := decodeNodes(data, &s)
	if err != nil {
		return nil, err
	}
	t.rebuildFrontierLocked(&s)
	return t, nil
}

// decodeNodes is Decode without the open frontier set: DecodeChain builds it
// once, after the last segment has been overlaid. Nodes, child slots and
// terminal counts come from s.
func decodeNodes(data []byte, s *slab) (*Tree, error) {
	d := &treeDecoder{buf: data, slab: s}
	if v := d.byte(); v != codecVersion {
		return nil, fmt.Errorf("%w: version %d", ErrCodec, v)
	}
	programID := d.string()
	if d.err != nil {
		return nil, d.err
	}
	t := New(programID)
	t.nodes = 0
	root, err := d.node(t, nil, Edge{}, 0)
	if err != nil {
		return nil, err
	}
	t.root = root
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(d.buf)-d.pos)
	}
	return t, nil
}

const maxDecodeDepth = 1 << 16

type treeDecoder struct {
	buf  []byte
	pos  int
	err  error
	slab *slab
}

func (d *treeDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated at offset %d", ErrCodec, d.pos)
	}
}

func (d *treeDecoder) byte() byte {
	if d.err != nil || d.pos >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *treeDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	// Most values — counts, edges, small visit counts — fit in one byte.
	if d.pos < len(d.buf) && d.buf[d.pos] < 0x80 {
		v := uint64(d.buf[d.pos])
		d.pos++
		return v
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

// length reads a count of items still to come. Every item takes at least
// one byte, so a count past the bytes left is malformed — which also keeps
// a hostile count from sizing an allocation or a loop.
func (d *treeDecoder) length() int {
	v := d.uvarint()
	if d.err != nil || v > uint64(len(d.buf)-d.pos) {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *treeDecoder) string() string {
	n := int(d.uvarint())
	if d.err != nil || n < 0 || d.pos+n > len(d.buf) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	return s
}

func (d *treeDecoder) edge() Edge {
	v := d.uvarint()
	return Edge{ID: int32(v >> 1), Taken: v&1 == 1}
}

func (d *treeDecoder) node(t *Tree, parent *Node, in Edge, depth int) (*Node, error) {
	if depth > maxDecodeDepth {
		return nil, fmt.Errorf("%w: depth exceeds %d", ErrCodec, maxDecodeDepth)
	}
	n := d.slab.node()
	if parent != nil {
		n.parent, n.in, n.depth = parent, in, parent.depth+1
	}
	t.nodes++

	if err := d.terminals(n); err != nil {
		return nil, err
	}
	for _, tc := range n.terminal {
		t.outcomes[tc.o] += tc.c
		t.executions += tc.c
		t.paths++
	}

	ni := d.length()
	if d.err != nil {
		return nil, d.err
	}
	for i := 0; i < ni; i++ {
		e := d.edge()
		if d.err != nil {
			return nil, d.err
		}
		n.markInfeasible(e)
	}

	nc := d.length()
	if d.err != nil {
		return nil, d.err
	}
	n.kids = d.slab.kids.take(nc)
	for i := 0; i < nc; i++ {
		e := d.edge()
		visits := int64(d.uvarint())
		if d.err != nil {
			return nil, d.err
		}
		child, err := d.node(t, n, e, depth+1)
		if err != nil {
			return nil, err
		}
		if n.kidIndex(e) >= 0 {
			return nil, fmt.Errorf("%w: duplicate edge %v", ErrCodec, e)
		}
		n.addKid(e, child, visits)
		if visits > 0 {
			t.addCover(e)
		}
	}
	return n, nil
}

// terminals reads a node's terminal counts over whatever n holds: into
// n.terminal's own room when it has enough (a delta entry overwriting a node
// the base filled in), else into room carved from the slab. Encode writes
// the outcomes in ascending order, and a decode holds them to it: the slice
// is kept sorted, and a repeated outcome would be counted twice.
func (d *treeDecoder) terminals(n *Node) error {
	nt := d.length()
	if d.err != nil {
		return d.err
	}
	if cap(n.terminal) >= nt {
		n.terminal = n.terminal[:0]
	} else {
		n.terminal = d.slab.terms.take(nt)
	}
	for i := 0; i < nt; i++ {
		o := prog.Outcome(d.byte())
		c := int64(d.uvarint())
		if d.err != nil {
			return d.err
		}
		if i > 0 && o <= n.terminal[i-1].o {
			return fmt.Errorf("%w: terminal outcome %d after %d", ErrCodec, o, n.terminal[i-1].o)
		}
		n.terminal = append(n.terminal, outcomeCount{o: o, c: c})
	}
	return nil
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
