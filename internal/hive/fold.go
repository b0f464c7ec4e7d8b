package hive

import (
	"encoding/binary"

	"repro/internal/exectree"
	"repro/internal/prog"
	"repro/internal/trace"
)

// foldLimit is how many branch events a replay's path fold holds before it
// flushes into the tree: 1 Mi events, 8 MiB of path copies plus their keys
// (one byte an event for branch IDs under 64, at most ten). A constant: the
// flush point changes no tree, only how much a replay holds at once.
const foldLimit = 1 << 20

// The two kinds of fold key. A key names the path's bytes in one of two
// encodings, so the kind keeps them apart: keys of different kinds never
// compare equal, and one path may hold an entry of each, which is harmless
// (see pathFold).
const (
	// keyFrame: the frame's own branch bytes (BatchView.BranchBytes).
	keyFrame byte = iota
	// keyPath: the path as appendPathKey writes it.
	keyPath
)

// pathFold gathers the tree merges of one program's journal replay: each
// distinct (outcome, path) once, with how many traces took it, in order of
// first occurrence. A flush merges every entry once with its count
// (Tree.MergeN), which leaves the tree byte-identical to merging trace by
// trace — every order-dependent effect of a merge happens at a path's first
// occurrence — so the fold must be flushed before anything else reads or
// changes the tree. A fleet repeats its executions (on the benchmark's
// recover workload 6 % of a program's replayed traces are distinct), and a
// repeat costs the fold one map lookup where a merge walks the whole path.
//
// Keys are compared by the map in full on every hit, never by a digest, so
// two different paths are never counted as one. A path may sit under two
// keys (a frame's bytes and its re-encoding, or two byte spellings of one
// event); its second entry's merge then adds only counts, and so lands the
// same tree wherever it comes. Only one replay's goroutine touches a fold.
type pathFold struct {
	tree *exectree.Tree
	at   map[string]int // key → index in paths
	// paths holds the distinct paths in order of first occurrence, each a
	// span of events, the copies of their events back to back.
	paths  []foldedPath
	events []trace.BranchEvent
	key    []byte // scratch
}

// foldedPath is one distinct path of a fold: its events, outcome and count.
type foldedPath struct {
	lo, hi  int
	outcome prog.Outcome
	n       int64
}

func newPathFold(tree *exectree.Tree) *pathFold {
	return &pathFold{tree: tree, at: make(map[string]int)}
}

// add counts one trace that ended in outcome along path. frame is path's
// encoding in the trace's frame, or nil when the path is not the frame's
// (a reconstruction); the fold copies what it keeps.
func (f *pathFold) add(outcome prog.Outcome, path []trace.BranchEvent, frame []byte) {
	if frame != nil {
		f.key = append(append(f.key[:0], byte(outcome), keyFrame), frame...)
	} else {
		f.key = appendPathKey(append(f.key[:0], byte(outcome), keyPath), path)
	}
	if i, ok := f.at[string(f.key)]; ok {
		f.paths[i].n++
		return
	}
	f.at[string(f.key)] = len(f.paths)
	lo := len(f.events)
	f.events = append(f.events, path...)
	f.paths = append(f.paths, foldedPath{lo: lo, hi: len(f.events), outcome: outcome, n: 1})
	if len(f.events) >= foldLimit {
		f.flush()
	}
}

// flush merges every distinct path gathered since the last flush once, with
// its count, in order of first occurrence, and empties the fold.
func (f *pathFold) flush() {
	for _, p := range f.paths {
		f.tree.MergeN(f.events[p.lo:p.hi:p.hi], p.outcome, p.n)
	}
	clear(f.at)
	f.paths, f.events = f.paths[:0], f.events[:0]
}

// appendPathKey appends path's events, one uvarint ID<<1|taken each: an
// encoding one path has exactly one of, and no two paths share.
func appendPathKey(dst []byte, path []trace.BranchEvent) []byte {
	for _, be := range path {
		v := uint64(uint32(be.ID)) << 1
		if be.Taken {
			v |= 1
		}
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}
