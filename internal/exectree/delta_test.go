package exectree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/prog"
	"repro/internal/trace"
)

// randomMerge folds one random path into the tree.
func randomMerge(t *Tree, rng *rand.Rand) {
	depth := 1 + rng.Intn(12)
	path := make([]trace.BranchEvent, depth)
	for d := range path {
		path[d] = trace.BranchEvent{ID: int32(rng.Intn(8)), Taken: rng.Intn(2) == 1}
	}
	outcomes := []prog.Outcome{prog.OutcomeOK, prog.OutcomeCrash, prog.OutcomeAssertFail, prog.OutcomeHang}
	t.Merge(path, outcomes[rng.Intn(len(outcomes))])
}

// assertTreesEquivalent compares two trees on every observable axis the
// snapshot acceptance criteria name.
func assertTreesEquivalent(t *testing.T, want, got *Tree, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats(), got.Stats()) {
		t.Fatalf("%s: stats mismatch:\n want %+v\n  got %+v", label, want.Stats(), got.Stats())
	}
	if !reflect.DeepEqual(visitCounts(want), visitCounts(got)) {
		t.Fatalf("%s: visit counts mismatch", label)
	}
	if !reflect.DeepEqual(certificates(want), certificates(got)) {
		t.Fatalf("%s: certificates mismatch", label)
	}
	a, b := want.FrontiersAll(), got.FrontiersAll()
	if (len(a) > 0 || len(b) > 0) && !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: frontier sets mismatch (%d vs %d)", label, len(a), len(b))
	}
}

// encodeDeltaRootPaths is the version-1 writer, kept as the reference the
// reader's backward compatibility is tested against: every dirty node as
// depth + its whole root path + body, sorted by depth and then by path.
func encodeDeltaRootPaths(t *Tree) []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	nodes := append([]*Node(nil), t.dirtyNodes...)
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].depth != nodes[j].depth {
			return nodes[i].depth < nodes[j].depth
		}
		return comparePaths(nodes[i], nodes[j]) < 0
	})
	buf := []byte{deltaVersionRootPaths}
	buf = binary.AppendUvarint(buf, uint64(len(t.programID)))
	buf = append(buf, t.programID...)
	buf = binary.AppendUvarint(buf, uint64(len(nodes)))
	for _, n := range nodes {
		buf = binary.AppendUvarint(buf, uint64(n.depth))
		path := make([]Edge, n.depth)
		fillPath(path, n)
		for _, e := range path {
			buf = appendEdge(buf, e)
		}
		buf = binary.AppendUvarint(buf, uint64(len(n.terminal)))
		for _, tc := range n.terminal {
			buf = append(buf, byte(tc.o))
			buf = binary.AppendUvarint(buf, uint64(tc.c))
		}
		buf = binary.AppendUvarint(buf, uint64(len(n.infeasible)))
		for _, e := range orderedEdges(n.infeasible) {
			buf = appendEdge(buf, e)
		}
		buf = binary.AppendUvarint(buf, uint64(len(n.kids)))
		for _, e := range n.Edges() {
			buf = appendEdge(buf, e)
			buf = binary.AppendUvarint(buf, uint64(n.Visits(e)))
		}
	}
	return buf
}

// certifyRandomFrontier certifies one open frontier infeasible, if any.
func certifyRandomFrontier(t *Tree, rng *rand.Rand) {
	if fr := t.FrontiersAll(); len(fr) > 0 {
		f := fr[rng.Intn(len(fr))]
		t.CertifyInfeasible(f.Prefix, f.Missing)
	}
}

// dirtyUnderClean counts dirty nodes whose parent is clean: a dirty set
// that is not ancestor-closed.
func dirtyUnderClean(t *Tree) int {
	n := 0
	for _, d := range t.dirtyNodes {
		if d.parent != nil && !d.parent.dirty {
			n++
		}
	}
	return n
}

// TestPropDeltaChainRoundTrip is the incremental-snapshot property: a base
// snapshot plus an ordered chain of delta segments, cut at random points in
// a random merge/certify history, must reconstruct the live tree exactly —
// whichever version wrote each segment, and also when a segment holds
// nothing but certificates on nodes whose ancestors did not change.
func TestPropDeltaChainRoundTrip(t *testing.T) {
	underClean, byVersion := 0, map[byte]int{}
	for seed := int64(0); seed < 160; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := New("prop-prog")
		// Phase 0: pre-base history.
		for m := 0; m < rng.Intn(40); m++ {
			randomMerge(live, rng)
		}
		base := live.Encode()
		live.SetDeltaTracking(true)

		var deltas [][]byte
		segments := 1 + rng.Intn(4)
		for s := 0; s < segments; s++ {
			if rng.Intn(3) == 0 {
				// Certificates only: each dirties one node under clean
				// ancestors.
				for c := 0; c <= rng.Intn(3); c++ {
					certifyRandomFrontier(live, rng)
				}
			} else {
				for m := 0; m < rng.Intn(30); m++ {
					randomMerge(live, rng)
					if rng.Intn(6) == 0 {
						certifyRandomFrontier(live, rng)
					}
				}
			}
			underClean += dirtyUnderClean(live)
			d := live.EncodeDelta()
			if rng.Intn(3) == 0 {
				d = encodeDeltaRootPaths(live)
			}
			byVersion[d[0]]++
			deltas = append(deltas, d)
			live.ResetDelta()
		}

		rebuilt, err := DecodeChain(base, deltas)
		if err != nil {
			t.Fatalf("seed %d: DecodeChain: %v", seed, err)
		}
		assertTreesEquivalent(t, live, rebuilt, fmt.Sprintf("seed %d", seed))
	}
	if underClean == 0 || byVersion[deltaVersionRootPaths] == 0 || byVersion[deltaVersion] == 0 {
		t.Fatalf("histories covered %d dirty nodes under clean parents and versions %v; want all three", underClean, byVersion)
	}
}

// TestDeltaNeverExceedsFull pins the size bound the layout promises. With
// every node dirty the entries are the nodes in Encode's own order, each
// body what Encode writes for the node, so the segment is the full snapshot
// plus its count and one entry header a node — keep, suffix length, and the
// node's in-edge as the whole suffix. The bytes never grow with Σ depth.
func TestDeltaNeverExceedsFull(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := New("prop-prog")
		live.SetDeltaTracking(true)
		for m := 0; m < 1+rng.Intn(400); m++ {
			randomMerge(live, rng)
		}
		nodes := int(live.Stats().Nodes)
		if live.DirtyNodes() != nodes {
			t.Fatalf("seed %d: %d of %d nodes dirty", seed, live.DirtyNodes(), nodes)
		}
		headers := binary.MaxVarintLen64 // the entry count
		live.Walk(func(path []Edge, n *Node) bool {
			headers += len(binary.AppendUvarint(nil, uint64(len(path)))) + 1 // keep ≤ depth, suffix ≤ 1
			if len(path) > 0 {
				headers += len(appendEdge(nil, path[len(path)-1]))
			}
			return true
		})
		full, delta := len(live.Encode()), len(live.EncodeDelta())
		if delta > full+headers {
			t.Fatalf("seed %d: delta of every node is %d B, full snapshot %d B + %d B of entry headers", seed, delta, full, headers)
		}
	}
}

// FuzzDeltaChain fuzzes the segment reader over a fixed base: arbitrary
// bytes — keep past the stack, suffix and count bombs, 2^60 uvarints,
// truncated entries — are an error and never a panic, and a segment that is
// accepted created no more nodes than it had bytes to name them with.
func FuzzDeltaChain(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	live := New("prop-prog")
	for m := 0; m < 30; m++ {
		randomMerge(live, rng)
	}
	base := live.Encode()
	baseNodes := live.Stats().Nodes
	live.SetDeltaTracking(true)
	for m := 0; m < 10; m++ {
		randomMerge(live, rng)
	}
	certifyRandomFrontier(live, rng)
	good := live.EncodeDelta()
	f.Add(good)
	f.Add(encodeDeltaRootPaths(live))
	f.Add([]byte{})
	f.Add(good[:len(good)/2])
	header := append([]byte{deltaVersion, 9}, "prop-prog"...)
	huge := binary.AppendUvarint(nil, 1<<60)
	entry := func(fields ...[]byte) []byte {
		out := append([]byte(nil), header...)
		for _, fld := range fields {
			out = append(out, fld...)
		}
		return out
	}
	f.Add(entry([]byte{1, 5, 0, 0, 0, 0}))            // keep past the stack
	f.Add(entry([]byte{1}, huge, []byte{0, 0, 0, 0})) // keep 2^60
	f.Add(entry([]byte{1, 0}, huge))                  // suffix bomb
	f.Add(entry(huge))                                // count bomb
	f.Add(entry([]byte{1, 0, 0}, huge))               // terminal-count bomb
	f.Add(entry([]byte{1, 0, 0, 0, 0}, huge))         // child-count bomb
	f.Add(entry([]byte{2, 0, 1, 2, 0, 0, 0, 1, 1}))   // second entry truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeChain(base, [][]byte{data})
		if err != nil {
			return
		}
		if grown := dec.Stats().Nodes - baseNodes; grown > int64(len(data)) {
			t.Fatalf("a %d-byte segment created %d nodes", len(data), grown)
		}
		walk, idx := dec.FrontiersByWalk(0), dec.FrontiersAll()
		if len(walk) != len(idx) || (len(walk) > 0 && !reflect.DeepEqual(walk, idx)) {
			t.Fatal("rebuilt index disagrees with full walk")
		}
	})
}

// TestDeltaCostTracksChanges pins the incremental-snapshot cost claim: the
// delta working set is bounded by the touched paths, not the tree size.
func TestDeltaCostTracksChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	live := New("prop-prog")
	for m := 0; m < 3000; m++ {
		randomMerge(live, rng)
	}
	live.SetDeltaTracking(true)
	if n := live.DirtyNodes(); n != 0 {
		t.Fatalf("fresh boundary has %d dirty nodes", n)
	}
	// One shallow merge dirties at most depth+1 nodes even on a big tree.
	live.Merge([]trace.BranchEvent{{ID: 1, Taken: true}, {ID: 2, Taken: false}}, prog.OutcomeOK)
	if n := live.DirtyNodes(); n == 0 || n > 3 {
		t.Fatalf("shallow merge dirtied %d nodes, want 1..3", n)
	}
	delta := live.EncodeDelta()
	full := live.Encode()
	if len(delta) >= len(full)/10 {
		t.Fatalf("delta (%dB) not an order cheaper than full snapshot (%dB)", len(delta), len(full))
	}
	// EncodeDelta does not clear; ResetDelta does.
	if live.DirtyNodes() == 0 {
		t.Fatal("EncodeDelta cleared the dirty set")
	}
	live.ResetDelta()
	if live.DirtyNodes() != 0 {
		t.Fatal("ResetDelta left dirty nodes")
	}
}

// TestDeltaTrackingOffReturnsNil pins the full-snapshot fallback contract.
func TestDeltaTrackingOffReturnsNil(t *testing.T) {
	live := New("prop-prog")
	live.Merge([]trace.BranchEvent{{ID: 1, Taken: true}}, prog.OutcomeOK)
	if d := live.EncodeDelta(); d != nil {
		t.Fatalf("EncodeDelta without tracking returned %d bytes", len(d))
	}
	if live.DeltaTracking() {
		t.Fatal("tracking reported on")
	}
}

// TestDeltaRejectsWrongProgram pins cross-program application as an error.
func TestDeltaRejectsWrongProgram(t *testing.T) {
	a := New("prog-a")
	a.SetDeltaTracking(true)
	a.Merge([]trace.BranchEvent{{ID: 1, Taken: true}}, prog.OutcomeOK)
	b := New("prog-b")
	if _, err := DecodeChain(b.Encode(), [][]byte{a.EncodeDelta()}); err == nil {
		t.Fatal("cross-program delta applied without error")
	}
}
