package exectree

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"

	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/trace"
)

func buildRandomTree(seed uint64, merges int) *Tree {
	rng := stats.NewRNG(seed)
	t := New("prog-x")
	for i := 0; i < merges; i++ {
		n := rng.Intn(7)
		path := make([]trace.BranchEvent, n)
		for j := range path {
			path[j] = trace.BranchEvent{ID: int32(rng.Intn(4)), Taken: rng.Bool(0.5)}
		}
		outcome := prog.OutcomeOK
		if rng.Bool(0.2) {
			outcome = prog.OutcomeCrash
		}
		t.Merge(path, outcome)
	}
	// Sprinkle a few certificates.
	for _, f := range t.Frontiers(3) {
		t.CertifyInfeasible(f.Prefix, f.Missing)
	}
	return t
}

func treesEqual(t *testing.T, a, b *Tree) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if sa.Nodes != sb.Nodes || sa.Paths != sb.Paths || sa.Executions != sb.Executions ||
		sa.EdgesCovered != sb.EdgesCovered {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
	for o, c := range sa.Outcomes {
		if sb.Outcomes[o] != c {
			t.Fatalf("outcome %v: %d vs %d", o, c, sb.Outcomes[o])
		}
	}
	// Structural walk comparison.
	type rec struct {
		path  string
		term  int64
		edges int
	}
	collect := func(tr *Tree) []rec {
		var out []rec
		tr.Walk(func(path []Edge, n *Node) bool {
			key := ""
			for _, e := range path {
				key += e.String()
			}
			var term int64
			for _, c := range n.Terminals() {
				term += c
			}
			out = append(out, rec{path: key, term: term, edges: len(n.Edges())})
			return true
		})
		return out
	}
	ra, rb := collect(a), collect(b)
	if len(ra) != len(rb) {
		t.Fatalf("walk sizes differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("node %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	if a.Complete() != b.Complete() {
		t.Fatal("completeness differs (certificates lost)")
	}
}

func TestTreeCodecRoundTrip(t *testing.T) {
	tr := buildRandomTree(5, 60)
	data := tr.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProgramID() != tr.ProgramID() {
		t.Fatal("program id lost")
	}
	treesEqual(t, tr, got)
}

func TestTreeCodecEmptyTree(t *testing.T) {
	tr := New("empty")
	got, err := Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats().Nodes != 1 {
		t.Fatalf("nodes = %d", got.Stats().Nodes)
	}
}

func TestTreeCodecRejectsCorruption(t *testing.T) {
	tr := buildRandomTree(6, 30)
	data := tr.Encode()
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncation at %d decoded", cut)
		}
	}
	bad := append([]byte(nil), data...)
	bad[0] = 99
	if _, err := Decode(bad); err == nil {
		t.Error("bad version decoded")
	}
}

func TestQuickTreeCodecNeverPanics(t *testing.T) {
	check := func(data []byte) bool {
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTreeCodecRoundTrip(t *testing.T) {
	check := func(seed uint64) bool {
		tr := buildRandomTree(seed, int(seed%40)+1)
		got, err := Decode(tr.Encode())
		if err != nil {
			return false
		}
		sa, sb := tr.Stats(), got.Stats()
		return sa.Nodes == sb.Nodes && sa.Paths == sb.Paths &&
			sa.Executions == sb.Executions && sa.EdgesCovered == sb.EdgesCovered
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodedTreeAcceptsMerges(t *testing.T) {
	tr := buildRandomTree(7, 20)
	got, err := Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	before := got.Stats().Executions
	got.Merge([]trace.BranchEvent{{ID: 99, Taken: true}}, prog.OutcomeOK)
	if got.Stats().Executions != before+1 {
		t.Fatal("decoded tree rejects merges")
	}
}

// goldenHistory merges a fixed history into t: n paths over six branches,
// merged with outcomes chosen so that most terminals end with several.
func goldenHistory(t *Tree, from, n int) {
	outcomes := []prog.Outcome{prog.OutcomeOK, prog.OutcomeCrash, prog.OutcomeAssertFail, prog.OutcomeDeadlock, prog.OutcomeHang}
	for i := from; i < from+n; i++ {
		path := make([]trace.BranchEvent, 1+i%5)
		for d := range path {
			path[d] = trace.BranchEvent{ID: int32((i*7 + d*3) % 6), Taken: (i>>d)&1 == 1}
		}
		for r := 0; r <= i%3; r++ {
			t.Merge(path, outcomes[(i+r*2)%len(outcomes)])
		}
		t.Merge(path, outcomes[(i*3+1)%len(outcomes)])
	}
}

// TestEncodeBytesGolden pins the bytes of Encode and EncodeDelta (length
// and SHA-256, taken when terminal counts were a map and the encoder sorted
// its keys) for a fixed tree whose terminals hold several outcomes each: a
// base, the delta over a further round of merges and a certificate, and the
// full encoding after it. Every data directory and archived segment holds
// these bytes, so they do not change with the node's in-memory layout.
func TestEncodeBytesGolden(t *testing.T) {
	tr := New("golden-prog")
	goldenHistory(tr, 0, 40)
	fr := tr.FrontiersAll()
	tr.CertifyInfeasible(fr[len(fr)/2].Prefix, fr[len(fr)/2].Missing)
	base := tr.Encode()
	tr.SetDeltaTracking(true)
	goldenHistory(tr, 40, 12)
	fr = tr.FrontiersAll()
	tr.CertifyInfeasible(fr[0].Prefix, fr[0].Missing)
	delta := tr.EncodeDelta()
	full := tr.Encode()

	several := 0
	tr.Walk(func(_ []Edge, n *Node) bool {
		if len(n.Terminals()) >= 3 {
			several++
		}
		return true
	})
	if several < 10 {
		t.Fatalf("%d terminals hold three outcomes or more; the golden tree should have at least 10", several)
	}
	for _, c := range []struct {
		name string
		got  []byte
		n    int
		sum  string
	}{
		{"Encode (base)", base, 513, "194e12087dc9ac29f8daf477be467e1f6e04cde9e4cc20ee3745e06b3a4bcc85"},
		{"EncodeDelta", delta, 380, "80a8887b6c723043184fabe76ddec983b888f8b02b7ca13438ed5c91d99cdc17"},
		{"Encode (after the delta)", full, 600, "7601e408bfc12ea0ea2a7b289d60ea689e298c2a537bd6095ce1591c4138b2e9"},
	} {
		sum := sha256.Sum256(c.got)
		if len(c.got) != c.n || hex.EncodeToString(sum[:]) != c.sum {
			t.Errorf("%s: %d B, sha256 %x; want %d B, %s", c.name, len(c.got), sum, c.n, c.sum)
		}
	}
	got, err := DecodeChain(base, [][]byte{delta})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), full) {
		t.Fatal("the decoded chain re-encodes to other bytes than the tree that wrote it")
	}
}
