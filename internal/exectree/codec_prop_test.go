package exectree

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/codec/codectest"
	"repro/internal/prog"
	"repro/internal/trace"
)

// randomTree grows a tree from random merges over a bounded branch-ID space
// (to force shared prefixes and siblings), with random outcomes, then
// certifies a random subset of its open frontiers infeasible — the full
// state space the codec must round-trip.
func randomTree(rng *rand.Rand) *Tree {
	t := New("prop-prog")
	merges := 1 + rng.Intn(60)
	for m := 0; m < merges; m++ {
		depth := 1 + rng.Intn(12)
		path := make([]trace.BranchEvent, depth)
		for d := range path {
			path[d] = trace.BranchEvent{ID: int32(rng.Intn(8)), Taken: rng.Intn(2) == 1}
		}
		outcomes := []prog.Outcome{prog.OutcomeOK, prog.OutcomeCrash, prog.OutcomeAssertFail, prog.OutcomeHang}
		// Repeat some merges so visit counts exceed 1.
		for r := 0; r <= rng.Intn(3); r++ {
			t.Merge(path, outcomes[rng.Intn(len(outcomes))])
		}
	}
	for _, f := range t.FrontiersAll() {
		if rng.Intn(4) == 0 {
			t.CertifyInfeasible(f.Prefix, f.Missing)
		}
	}
	return t
}

// certificates collects every (path, edge) infeasibility certificate.
func certificates(t *Tree) map[string]bool {
	out := make(map[string]bool)
	t.Walk(func(path []Edge, n *Node) bool {
		for e := range n.infeasible {
			key := ""
			for _, pe := range path {
				key += pe.String() + "/"
			}
			out[key+"!"+e.String()] = true
		}
		return true
	})
	return out
}

// visitCounts collects every (path, edge) -> visits entry.
func visitCounts(t *Tree) map[string]int64 {
	out := make(map[string]int64)
	t.Walk(func(path []Edge, n *Node) bool {
		for _, e := range n.Edges() {
			key := ""
			for _, pe := range path {
				key += pe.String() + "/"
			}
			out[key+e.String()] = n.Visits(e)
		}
		return true
	})
	return out
}

// assertTreeRoundTrip checks the full decode-equals-original property the
// acceptance criteria name: stats, visit counts, certificates, terminal
// outcome counts, and an identical Frontiers(k) snapshot with the rebuilt
// index agreeing with a full walk.
func assertTreeRoundTrip(t *testing.T, orig *Tree) {
	t.Helper()
	enc := orig.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode(Encode(t)): %v", err)
	}
	if !reflect.DeepEqual(orig.Stats(), dec.Stats()) {
		t.Fatalf("stats mismatch:\n want %+v\n  got %+v", orig.Stats(), dec.Stats())
	}
	if !reflect.DeepEqual(visitCounts(orig), visitCounts(dec)) {
		t.Fatal("visit counts mismatch after round-trip")
	}
	if !reflect.DeepEqual(certificates(orig), certificates(dec)) {
		t.Fatal("infeasibility certificates mismatch after round-trip")
	}
	for _, k := range []int{0, 1, 3, 17, 1 << 20} {
		frontiersAt := func(t *Tree) []Frontier {
			if k <= 0 {
				return t.FrontiersAll()
			}
			return t.Frontiers(k)
		}
		a, b := frontiersAt(orig), frontiersAt(dec)
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Frontiers(%d) mismatch after round-trip", k)
		}
	}
	// The rebuilt incremental index must agree with a from-scratch walk of
	// the decoded structure.
	walk := dec.FrontiersByWalk(0)
	idx := dec.FrontiersAll()
	if len(walk) != len(idx) || (len(walk) > 0 && !reflect.DeepEqual(walk, idx)) {
		t.Fatalf("rebuilt index (%d) disagrees with full walk (%d)", len(idx), len(walk))
	}
	// Encode is deterministic: re-encoding the decoded tree is stable.
	if !bytes.Equal(enc, dec.Encode()) {
		t.Fatal("Encode(Decode(Encode(t))) is not byte-stable")
	}
}

// TestPropTreeCodecRoundTrip drives the round-trip property over many
// random merge/certify histories.
func TestPropTreeCodecRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		orig := randomTree(rng)
		assertTreeRoundTrip(t, orig)
	}
}

// FuzzTreeCodec fuzzes the decoder: arbitrary bytes must never panic, a
// hostile count or length is refused without sizing anything past the
// input, and any successfully decoded tree must re-encode byte-stably and
// satisfy the index-equals-walk invariant.
func FuzzTreeCodec(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f.Add(randomTree(rng).Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{codecVersion})
	decode := func(data []byte) error { _, err := Decode(data); return err }
	codectest.Fuzz(f, decode,
		[]byte{codecVersion},          // the program ID's length
		[]byte{codecVersion, 0},       // the root's terminal count
		[]byte{codecVersion, 0, 0},    // its certificate count
		[]byte{codecVersion, 0, 0, 0}, // its child count
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec *Tree
		if codectest.Decode(t, data, func(b []byte) (err error) { dec, err = Decode(b); return err }) != nil {
			return
		}
		re := dec.Encode()
		dec2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of valid encoding failed: %v", err)
		}
		if !bytes.Equal(re, dec2.Encode()) {
			t.Fatal("encoding is not a fixed point")
		}
		walk := dec2.FrontiersByWalk(0)
		idx := dec2.FrontiersAll()
		if len(walk) != len(idx) || (len(walk) > 0 && !reflect.DeepEqual(walk, idx)) {
			t.Fatal("rebuilt index disagrees with full walk")
		}
		assertBuckets(t, dec, "decoded")
	})
}

// assertBuckets checks the open set against the nodes' buckets: every
// node's bucket lists exactly the positions of its own entries, once each,
// and every entry is in its node's bucket — what retireFrontier's
// swap-remove rests on.
func assertBuckets(t *testing.T, tr *Tree, label string) {
	t.Helper()
	listed := 0
	tr.Walk(func(_ []Edge, n *Node) bool {
		for k, pos := range n.open {
			if pos < 0 || int(pos) >= len(tr.open) || tr.open[pos].n != n {
				t.Fatalf("%s: a bucket lists position %d, which is not its node's entry", label, pos)
			}
			if slices.Contains(n.open[:k], pos) {
				t.Fatalf("%s: a bucket lists position %d twice", label, pos)
			}
		}
		listed += len(n.open)
		return true
	})
	if listed != len(tr.open) {
		t.Fatalf("%s: buckets list %d positions for %d open entries", label, listed, len(tr.open))
	}
}

// assertDecodedIsLive holds a decoded tree to the live tree it was written
// from: the open set agrees with a walk of the structure, every bucket is
// its node's own, and Stats and the Encode bytes are the live tree's.
func assertDecodedIsLive(t *testing.T, live, dec *Tree, label string) {
	t.Helper()
	walk, idx := dec.FrontiersByWalk(0), dec.FrontiersAll()
	if (len(walk) > 0 || len(idx) > 0) && !reflect.DeepEqual(walk, idx) {
		t.Fatalf("%s: open set (%d) disagrees with a walk (%d)", label, len(idx), len(walk))
	}
	assertBuckets(t, dec, label)
	if !reflect.DeepEqual(live.Stats(), dec.Stats()) {
		t.Fatalf("%s: stats differ:\n want %+v\n  got %+v", label, live.Stats(), dec.Stats())
	}
	if !bytes.Equal(live.Encode(), dec.Encode()) {
		t.Fatalf("%s: Encode bytes differ", label)
	}
}

// mergeAndCertify runs ops random merges and certificates over branch IDs
// below ids, the same on every tree; about one op in ten is a certificate.
func mergeAndCertify(rng *rand.Rand, ops, ids int, trees ...*Tree) {
	outcomes := []prog.Outcome{prog.OutcomeOK, prog.OutcomeCrash, prog.OutcomeAssertFail, prog.OutcomeHang}
	for i := 0; i < ops; i++ {
		if rng.Intn(10) == 0 {
			if fr := trees[0].Frontiers(8); len(fr) > 0 {
				f := fr[rng.Intn(len(fr))]
				for _, tr := range trees {
					tr.CertifyInfeasible(f.Prefix, f.Missing)
				}
			}
			continue
		}
		path := make([]trace.BranchEvent, 1+rng.Intn(16))
		for d := range path {
			path[d] = trace.BranchEvent{ID: int32(rng.Intn(ids)), Taken: rng.Intn(2) == 1}
		}
		outcome := outcomes[rng.Intn(len(outcomes))]
		for _, tr := range trees {
			tr.Merge(path, outcome)
		}
	}
}

// TestPropDecodeEqualsLive: a tree restored by Decode, or by DecodeChain
// from a base and two deltas, is the live tree — open set, buckets, Stats,
// Encode bytes — and stays it under 1 000 further merges and certificates
// applied to all three. Decode opens each node's frontiers as it closes the
// node, DecodeChain in one walk after the last segment; a bucket listing a
// position of another node's entry would go wrong only at a retirement that
// moves it, so the history runs on after the restore.
func TestPropDecodeEqualsLive(t *testing.T) {
	check := func(live *Tree, base []byte, deltas [][]byte, ids int, rng *rand.Rand, label string) {
		t.Helper()
		dec, err := Decode(live.Encode())
		if err != nil {
			t.Fatalf("%s: Decode: %v", label, err)
		}
		chain, err := DecodeChain(base, deltas)
		if err != nil {
			t.Fatalf("%s: DecodeChain: %v", label, err)
		}
		assertDecodedIsLive(t, live, dec, label+" Decode")
		assertDecodedIsLive(t, live, chain, label+" DecodeChain")

		mergeAndCertify(rng, 1000, ids, live, dec, chain)
		want := live.FrontiersAll()
		for _, restored := range []struct {
			name string
			tree *Tree
		}{{"Decode", dec}, {"DecodeChain", chain}} {
			name, got := restored.name, restored.tree
			if fr := got.FrontiersAll(); (len(want) > 0 || len(fr) > 0) && !reflect.DeepEqual(want, fr) {
				t.Fatalf("%s %s: frontier sets differ after 1 000 more ops (%d vs %d)", label, name, len(want), len(fr))
			}
			if !bytes.Equal(live.Encode(), got.Encode()) {
				t.Fatalf("%s %s: Encode bytes differ after 1 000 more ops", label, name)
			}
			assertBuckets(t, got, label+" "+name+" after 1 000 more ops")
		}
	}

	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := randomTree(rng)
		base := live.Encode()
		var deltas [][]byte
		for d := 0; d < 2; d++ {
			live.SetDeltaTracking(true)
			for m := 0; m < 1+rng.Intn(30); m++ {
				randomMerge(live, rng)
			}
			certifyRandomFrontier(live, rng)
			deltas = append(deltas, live.EncodeDelta())
		}
		check(live, base, deltas, 8, rng, fmt.Sprintf("randomTree seed %d", seed))
	}
	live, base, deltas := allocChain(2_000)
	check(live, base, deltas, 64, rand.New(rand.NewSource(1)), "allocChain")
}
