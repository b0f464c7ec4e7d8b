package exectree

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/prog"
	"repro/internal/trace"
)

// decodedPair returns two copies of one decoded random tree with delta
// tracking on: certificates, a few zero-visit slots (what a degenerate
// segment can carry), and a fresh delta boundary.
func decodedPair(t *testing.T, rng *rand.Rand) (*Tree, *Tree) {
	t.Helper()
	base := New("mergen-prog")
	for i := 0; i < 30; i++ {
		base.Merge(coverPath(rng), prog.OutcomeOK)
		if i%10 == 9 {
			certifyRandomFrontier(base, rng)
		}
	}
	zeroSlots(base, rng)
	enc := base.Encode()
	a, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	a.SetDeltaTracking(true)
	b.SetDeltaTracking(true)
	return a, b
}

// nodePath renders a node's root path.
func nodePath(n *Node) string {
	p := make([]Edge, n.depth)
	fillPath(p, n)
	return fmt.Sprint(p)
}

// assertSameTree holds got to want byte for byte — Encode, EncodeDelta — and
// on every other reader: Stats, coverage, the sorted frontier set, and the
// order of the open set and of the delta working set, which no encoding
// shows but the next merges and certificates act on.
func assertSameTree(t *testing.T, want, got *Tree, label string) {
	t.Helper()
	if !bytes.Equal(want.Encode(), got.Encode()) {
		t.Fatalf("%s: Encode bytes differ", label)
	}
	if !bytes.Equal(want.EncodeDelta(), got.EncodeDelta()) {
		t.Fatalf("%s: EncodeDelta bytes differ", label)
	}
	if !reflect.DeepEqual(want.Stats(), got.Stats()) {
		t.Fatalf("%s: stats differ:\n want %+v\n  got %+v", label, want.Stats(), got.Stats())
	}
	if !reflect.DeepEqual(recountCover(want), recountCover(got)) || !reflect.DeepEqual(want.cover, got.cover) {
		t.Fatalf("%s: coverage differs", label)
	}
	if a, b := want.FrontiersAll(), got.FrontiersAll(); (len(a) > 0 || len(b) > 0) && !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: frontier sets differ (%d vs %d)", label, len(a), len(b))
	}
	if len(want.open) != len(got.open) {
		t.Fatalf("%s: open sets of %d and %d", label, len(want.open), len(got.open))
	}
	for i := range want.open {
		w, g := want.open[i], got.open[i]
		if nodePath(w.n) != nodePath(g.n) || w.missing != g.missing || w.sib != g.sib {
			t.Fatalf("%s: open set entry %d differs", label, i)
		}
	}
	if len(want.dirtyNodes) != len(got.dirtyNodes) {
		t.Fatalf("%s: %d and %d dirty nodes", label, len(want.dirtyNodes), len(got.dirtyNodes))
	}
	for i := range want.dirtyNodes {
		if nodePath(want.dirtyNodes[i]) != nodePath(got.dirtyNodes[i]) {
			t.Fatalf("%s: dirty node %d differs", label, i)
		}
	}
}

// certifyBoth certifies the same random open frontier on both trees.
func certifyBoth(a, b *Tree, rng *rand.Rand) {
	if fr := a.FrontiersAll(); len(fr) > 0 {
		f := fr[rng.Intn(len(fr))]
		a.CertifyInfeasible(f.Prefix, f.Missing)
		b.CertifyInfeasible(f.Prefix, f.Missing)
	}
}

// TestMergeNEqualsRepeatedMerge: MergeN(n) is n Merges, whether the n
// executions arrive back to back or — the replay fold's case — spread over a
// history in which each distinct (outcome, path) is merged once with its
// count at its first occurrence. Both run on a decoded tree with delta
// tracking on, between certificates (the points a fold is flushed at), over
// paths drawn from a small pool so repeats are the rule.
func TestMergeNEqualsRepeatedMerge(t *testing.T) {
	outcomes := []prog.Outcome{prog.OutcomeOK, prog.OutcomeOK, prog.OutcomeCrash, prog.OutcomeHang}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([][]trace.BranchEvent, 4+rng.Intn(12))
		for i := range pool {
			pool[i] = coverPath(rng)
		}

		// Back to back: n Merges against one MergeN.
		a, b := decodedPair(t, rng)
		for g := 0; g < 60; g++ {
			path, outcome := pool[rng.Intn(len(pool))], outcomes[rng.Intn(len(outcomes))]
			n := 1 + rng.Int63n(6)
			first := a.Merge(path, outcome)
			for k := int64(1); k < n; k++ {
				a.Merge(path, outcome)
			}
			if got := b.MergeN(path, outcome, n); got != first {
				t.Fatalf("seed %d group %d: MergeN reported %+v, the first Merge %+v", seed, g, got, first)
			}
			if rng.Intn(8) == 0 {
				certifyBoth(a, b, rng)
			}
		}
		assertSameTree(t, a, b, fmt.Sprintf("seed %d back to back", seed))

		// Spread: a history merged trace by trace against its distinct
		// paths merged once each, at first occurrence, segment by segment.
		a, b = decodedPair(t, rng)
		for seg := 0; seg < 6; seg++ {
			type entry struct {
				path    []trace.BranchEvent
				outcome prog.Outcome
				n       int64
			}
			var order []*entry
			at := map[string]*entry{}
			for i := rng.Intn(80); i >= 0; i-- {
				path, outcome := pool[rng.Intn(len(pool))], outcomes[rng.Intn(len(outcomes))]
				a.Merge(path, outcome)
				key := fmt.Sprint(outcome, path)
				if e, ok := at[key]; ok {
					e.n++
					continue
				}
				at[key] = &entry{path: path, outcome: outcome, n: 1}
				order = append(order, at[key])
			}
			for _, e := range order {
				b.MergeN(e.path, e.outcome, e.n)
			}
			certifyBoth(a, b, rng)
			assertSameTree(t, a, b, fmt.Sprintf("seed %d segment %d", seed, seg))
		}
	}
}
