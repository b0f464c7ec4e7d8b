package exectree

// slab is the memory one decode builds a tree from: nodes, child slots,
// terminal counts and open buckets, each handed out of chunks that hold many
// of them. A decode of N nodes then allocates O(N / slabMaxChunk) times
// instead of several times a node, and a subtree's nodes lie together in
// memory. Decode and DecodeChain make one and drop it when they return;
// what it handed out lives on in the tree, and so do the chunks.
//
// Every slice it carves is capped at its own length. A later append — a
// Merge adding an edge or an outcome, a frontier opening at a node — then
// copies the slice to the heap and never writes into the slots of the node
// carved next. A decoded node's kids and terminal counts are read at exactly
// the size the encoding declared, and its open bucket is carved when the
// restore closes the node, at the number of frontiers it opens there, so a
// tree that only grows where traffic reaches pays the copy only there. The
// open set's entries are not carved here: they end in one slice of the
// tree's own (entryList).
type slab struct {
	nodes chunk[Node]
	kids  chunk[childRef]
	terms chunk[outcomeCount]
	open  chunk[int32]
}

// Chunk sizes, in elements: the first chunk of each kind holds
// slabMinChunk, and each next one twice the last, up to slabMaxChunk. A
// three-node tree costs a few hundred bytes; a large one, an allocation per
// thousand nodes.
const (
	slabMinChunk = 16
	slabMaxChunk = 1024
)

// chunk hands out elements of one type from the current chunk.
type chunk[T any] struct {
	free []T // what is left of the current chunk
	size int // length of the current chunk
}

// take returns an empty slice with room for exactly n elements. It returns
// nil for n = 0, and for n past slabMaxChunk: a request that large (a
// fan-out of a thousand edges) grows by append, as it would without a slab,
// so a hostile count never sizes a chunk.
func (c *chunk[T]) take(n int) []T {
	if n <= 0 || n > slabMaxChunk {
		return nil
	}
	if n > len(c.free) {
		c.size = min(max(2*c.size, slabMinChunk, n), slabMaxChunk)
		c.free = make([]T, c.size)
	}
	out := c.free[:0:n]
	c.free = c.free[n:]
	return out
}

// node returns a zeroed node.
func (s *slab) node() *Node {
	return &s.nodes.take(1)[:1][0]
}

// child returns a zeroed node hanging off parent along e.
func (s *slab) child(parent *Node, e Edge) *Node {
	n := s.node()
	n.parent, n.in, n.depth = parent, e, parent.depth+1
	return n
}

// entryList collects a restore's open frontier entries in the order they
// are opened, in chunks that stay where they are as the list grows, and
// hands them over as one slice of exactly their count: the open set is
// allocated once, at its final size, and never regrown by append.
type entryList struct {
	full [][]frontierEntry // the chunks filled so far
	cur  []frontierEntry   // the chunk being filled
	n    int
}

// add appends e and returns its position in the final slice.
func (l *entryList) add(e frontierEntry) int32 {
	if len(l.cur) == cap(l.cur) {
		if l.cur != nil {
			l.full = append(l.full, l.cur)
		}
		l.cur = make([]frontierEntry, 0, min(max(2*cap(l.cur), slabMinChunk), slabMaxChunk))
	}
	l.cur = append(l.cur, e)
	l.n++
	return int32(l.n - 1)
}

// slice returns every entry added, in order, in one slice of their count.
func (l *entryList) slice() []frontierEntry {
	if l.n == 0 {
		return nil
	}
	out := make([]frontierEntry, 0, l.n)
	for _, c := range l.full {
		out = append(out, c...)
	}
	return append(out, l.cur...)
}
