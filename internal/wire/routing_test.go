package wire

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/hive"
	"repro/internal/leaktest"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/ring"
	"repro/internal/trace"
)

// buildNamedCrashy is buildCrashy with a caller-chosen name, so routed
// tests get a corpus of distinct program IDs spread around the ring.
func buildNamedCrashy(t *testing.T, name string) *prog.Program {
	t.Helper()
	b := prog.NewBuilder(name, 1)
	hi, end := b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpGE, 100, hi)
	b.Jmp(end)
	b.Bind(hi)
	inner := b.NewLabel()
	b.BrImm(0, prog.CmpLT, 110, inner)
	b.Jmp(end)
	b.Bind(inner)
	b.Const(1, 0)
	b.Div(2, 1, 1)
	b.Bind(end)
	b.Halt()
	return b.MustBuild()
}

func buildRoutedCorpus(t *testing.T, n int) []*prog.Program {
	t.Helper()
	out := make([]*prog.Program, n)
	for i := range out {
		out[i] = buildNamedCrashy(t, fmt.Sprintf("routed-%d", i))
	}
	return out
}

// fleetNode is one sharded hive: an in-process backend plus its server.
type fleetNode struct {
	h    *hive.Hive
	srv  *Server
	addr string
}

// startFleet boots n sharded hives with the whole corpus registered on
// every member (registration is cheap metadata; ingest only ever lands on
// the owner) and one placement map over their listen addresses installed
// everywhere.
func startFleet(t *testing.T, n int, corpus []*prog.Program) ([]*fleetNode, *ring.Map) {
	t.Helper()
	nodes := make([]*fleetNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		h := hive.New("fleet")
		for _, p := range corpus {
			if err := h.RegisterProgram(p); err != nil {
				t.Fatal(err)
			}
		}
		srv := NewServer(h)
		srv.Logf = t.Logf
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &fleetNode{h: h, srv: srv, addr: addr}
		addrs[i] = addr
		t.Cleanup(func() { _ = srv.Close() })
	}
	m := ring.New(addrs, ring.DefaultVNodes, 42)
	for _, nd := range nodes {
		nd.srv.SetPlacement(m, nd.addr)
	}
	return nodes, m
}

func nodeByAddr(t *testing.T, nodes []*fleetNode, addr string) *fleetNode {
	t.Helper()
	for _, nd := range nodes {
		if nd.addr == addr {
			return nd
		}
	}
	t.Fatalf("no fleet node at %s", addr)
	return nil
}

// pickOwnedBy returns a corpus program the map assigns to addr (want
// true) or to any other node (want false). The ring hashes ephemeral
// listen ports, so an unlucky run can land the whole fixed corpus on (or
// off) one member; in that case extra programs are synthesized until one
// hashes where the test needs it, registered fleet-wide like the corpus.
func pickOwnedBy(t *testing.T, nodes []*fleetNode, corpus []*prog.Program, m *ring.Map, addr string, want bool) *prog.Program {
	t.Helper()
	for _, p := range corpus {
		if (m.Owner(p.ID) == addr) == want {
			return p
		}
	}
	for i := 0; i < 1024; i++ {
		p := buildNamedCrashy(t, fmt.Sprintf("routed-extra-%d", i))
		if (m.Owner(p.ID) == addr) != want {
			continue
		}
		for _, nd := range nodes {
			if err := nd.h.RegisterProgram(p); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	t.Fatalf("no program with owner==%s being %v after 1024 probes", addr, want)
	return nil
}

// TestRoutedSealedExactlyOnce drives a Router over a 3-hive fleet: every
// program's traces land on exactly its ring owner and nowhere else, and a
// verbatim resubmission of copies of the already-acked sealed frames (a
// lost ack's view) is dup-acked without re-ingesting.
func TestRoutedSealedExactlyOnce(t *testing.T) {
	leaktest.Check(t)
	corpus := buildRoutedCorpus(t, 6)
	nodes, m := startFleet(t, 3, corpus)
	// The spread check below needs two owners, and the ring hashes ephemeral
	// listen ports: should the fixed corpus land on one member, add a
	// program that another member owns.
	if p := pickOwnedBy(t, nodes, corpus, m, m.Owner(corpus[0].ID), false); !slices.Contains(corpus, p) {
		corpus = append(corpus, p)
	}
	r := NewRouter(nodes[0].addr, nodes[1].addr, nodes[2].addr)
	defer r.Close()

	allSealed := make(map[string][]pod.SealedBatch)
	for pi, p := range corpus {
		batches := [][]*trace.Trace{
			{captureWireTrace(t, p, "route-pod", []int64{int64(pi)})},
			{captureWireTrace(t, p, "route-pod", []int64{int64(100 + pi)})},
		}
		sealed := r.SealTraceBatches(p.ID, batches)
		allSealed[p.ID] = cloneSealed(sealed)
		acc, err := r.SubmitSealed(sealed)
		if err != nil {
			t.Fatalf("program %d: %v", pi, err)
		}
		for i, ok := range acc {
			if !ok {
				t.Fatalf("program %d frame %d not accepted", pi, i)
			}
		}
	}

	spread := make(map[string]bool)
	for _, p := range corpus {
		owner := m.Owner(p.ID)
		spread[owner] = true
		for _, nd := range nodes {
			st, err := nd.h.ProgramStats(p.ID)
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			if nd.addr == owner {
				want = 2
			}
			if st.Ingested != want {
				t.Fatalf("program %s on %s: ingested=%d want %d", p.ID, nd.addr, st.Ingested, want)
			}
		}
	}
	if len(spread) < 2 {
		t.Fatalf("corpus landed entirely on one node; ring or corpus degenerate")
	}

	// Exactly-once across the fleet: resubmitting every sealed frame
	// verbatim dup-acks without moving any counter.
	for _, p := range corpus {
		acc, err := r.SubmitSealed(allSealed[p.ID])
		if err != nil {
			t.Fatal(err)
		}
		for i, ok := range acc {
			if !ok {
				t.Fatalf("resubmitted frame %d of %s not dup-acked", i, p.ID)
			}
		}
		st, err := nodeByAddr(t, nodes, m.Owner(p.ID)).h.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingested != 2 {
			t.Fatalf("resubmission re-ingested: %s has %d traces", p.ID, st.Ingested)
		}
	}
}

// TestRedirectResubmitAfterRehome is the owner-moved path end to end: a
// routing client seals and part-submits against the original owner, the
// owner's programs are exported/imported to survivors under placement v2,
// and the stale client's resubmission is answered with MsgRedirect naming
// the new owner. A router holding the stale map chases the redirect and
// delivers the parked frames verbatim — already-acked frames dup-ack on
// the new owner (the session table traveled with the snapshot), fresh
// frames apply exactly once.
func TestRedirectResubmitAfterRehome(t *testing.T) {
	corpus := buildRoutedCorpus(t, 6)
	nodes, m := startFleet(t, 3, corpus)
	victim := nodes[2]
	moved := pickOwnedBy(t, nodes, corpus, m, victim.addr, true)

	// The router bootstraps now, so it holds placement v1 across the move.
	r := NewRouter(victim.addr)
	defer r.Close()
	if got := r.PlacementVersion(); got != m.Version() {
		t.Fatalf("router placement v%d, want v%d", got, m.Version())
	}

	c := Dial(victim.addr)
	defer c.Close()
	var batches [][]*trace.Trace
	for i := 0; i < 4; i++ {
		batches = append(batches, []*trace.Trace{captureWireTrace(t, moved, "move-pod", []int64{int64(i)})})
	}
	sealed := c.SealTraceBatches(moved.ID, batches)
	// Frame 0 is acked by the original owner before the move, and its ack
	// is then lost: the client still holds a copy of all four frames.
	parked := cloneSealed(sealed)
	if acc, err := c.SubmitSealed(sealed[:1]); err != nil || !acc[0] {
		t.Fatalf("pre-move submit: acc=%v err=%v", acc, err)
	}

	// Re-home every program the victim owns and retire it from the ring.
	m2 := m.Without(victim.addr)
	for _, p := range corpus {
		if m.Owner(p.ID) != victim.addr {
			continue
		}
		chain, err := victim.h.ExportProgram(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := nodeByAddr(t, nodes, m2.Owner(p.ID)).h.ImportProgram(chain); err != nil {
			t.Fatal(err)
		}
		if err := victim.h.DropProgram(p.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range nodes {
		nd.srv.SetPlacement(m2, nd.addr)
	}
	newOwner := nodeByAddr(t, nodes, m2.Owner(moved.ID))

	// The stale direct client resubmits to the old owner: the answer is a
	// typed redirect naming the new owner at placement v2.
	_, err := c.SubmitSealed(parked)
	var re *RedirectError
	if !errors.As(err, &re) {
		t.Fatalf("stale submit error = %v, want RedirectError", err)
	}
	if re.Owner != newOwner.addr || re.ProgramID != moved.ID {
		t.Fatalf("redirect points at %s for %s, want %s for %s", re.Owner, re.ProgramID, newOwner.addr, moved.ID)
	}
	if re.Version != m2.Version() {
		t.Fatalf("redirect placement v%d, want v%d", re.Version, m2.Version())
	}

	// The stale router chases the redirect: all four frames delivered, the
	// pre-move acked frame exactly once.
	acc, err := r.SubmitSealed(parked)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range acc {
		if !ok {
			t.Fatalf("frame %d not delivered after re-homing", i)
		}
	}
	if got := r.PlacementVersion(); got != m2.Version() {
		t.Fatalf("router did not adopt redirect placement: v%d, want v%d", got, m2.Version())
	}
	st, err := newOwner.h.ProgramStats(moved.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != int64(len(sealed)) {
		t.Fatalf("new owner ingested %d, want %d (exactly-once across re-homing)", st.Ingested, len(sealed))
	}
	// Steering survives the move: the new owner answers guidance for the
	// migrated frontier through the router.
	if _, err := r.Guidance(moved.ID, 4); err != nil {
		t.Fatalf("guidance after re-homing: %v", err)
	}
}

// TestWrongNodeWritesRedirectedReadsRedirected points clients at the WRONG
// member of a sharded fleet. Nothing is applied, looked up or forwarded
// there: a bare client is told where the program lives, for a write and for
// a read alike, and a router seeded with only the wrong node chases that
// answer — for sealed frames, for a loose batch spanning both owners, and
// for fixes and guidance.
func TestWrongNodeWritesRedirectedReadsRedirected(t *testing.T) {
	corpus := buildRoutedCorpus(t, 4)
	nodes, m := startFleet(t, 2, corpus)
	wrong := nodes[0]
	p := pickOwnedBy(t, nodes, corpus, m, wrong.addr, false)
	pLocal := pickOwnedBy(t, nodes, corpus, m, wrong.addr, true)
	owner := nodeByAddr(t, nodes, m.Owner(p.ID))

	bare := Dial(wrong.addr)
	defer bare.Close()
	err := bare.SubmitTraces([]*trace.Trace{captureWireTrace(t, p, "bare-pod", []int64{1})})
	var re *RedirectError
	if !errors.As(err, &re) || re.Owner != owner.addr {
		t.Fatalf("write at the wrong node: err = %v, want a redirect to %s", err, owner.addr)
	}

	r := NewRouter(wrong.addr)
	defer r.Close()
	mixed := []*trace.Trace{
		captureWireTrace(t, pLocal, "loose-pod", []int64{7}),
		captureWireTrace(t, p, "loose-pod", []int64{8}),
	}
	if err := r.SubmitTraces(mixed); err != nil {
		t.Fatalf("loose batch spanning both owners: %v", err)
	}
	if st, _ := wrong.h.ProgramStats(pLocal.ID); st.Ingested != 1 {
		t.Fatalf("local half of the loose batch: ingested=%d", st.Ingested)
	}
	if st, _ := owner.h.ProgramStats(p.ID); st.Ingested != 1 {
		t.Fatalf("routed half of the loose batch: ingested=%d, want 1 (the bare client's write must not have landed)", st.Ingested)
	}
	if st, _ := wrong.h.ProgramStats(p.ID); st.Ingested != 0 {
		t.Fatalf("wrong node ingested %d traces of a program it does not own", st.Ingested)
	}

	// A pod's crash mints a fix on the owner. Asked at the wrong node, the
	// bare client gets the same redirect a write gets; the router asks the
	// owner.
	pd, err := pod.New(pod.Config{
		Program: p, ID: "wrong-node-pod", Hive: r,
		Privacy: trace.PrivacyHashed, Salt: "fleet", BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd.RunOnce([]int64{105}); err != nil {
		t.Fatal(err)
	}
	re = nil
	if _, _, err := bare.FixesSince(p.ID, 0); !errors.As(err, &re) || re.Owner != owner.addr || re.Version != m.Version() {
		t.Fatalf("fixes at the wrong node: err = %v, want a redirect to %s at v%d", err, owner.addr, m.Version())
	}
	re = nil
	if _, err := bare.Guidance(p.ID, 4); !errors.As(err, &re) || re.Owner != owner.addr {
		t.Fatalf("guidance at the wrong node: err = %v, want a redirect to %s", err, owner.addr)
	}
	if fixes, _, err := r.FixesSince(p.ID, 0); err != nil || len(fixes) == 0 {
		t.Fatalf("fixes through the router: %d fixes, err %v; want the owner's fix", len(fixes), err)
	}
	// The router's map goes stale: the fleet moves on to a placement that
	// assigns everything to the wrong node. The old owner redirects the
	// router's next reads there, and the router follows.
	v2 := ring.NewVersion(m.Version()+1, []string{wrong.addr}, ring.DefaultVNodes, 42)
	for _, nd := range nodes {
		nd.srv.SetPlacement(v2, nd.addr)
	}
	if _, _, err := r.FixesSince(p.ID, 0); err != nil {
		t.Fatalf("fixes through a router whose map went stale: %v", err)
	}
	if got := r.Owner(p.ID); got != wrong.addr || r.PlacementVersion() != v2.Version() {
		t.Fatalf("router routes %s to %s at v%d after the redirect, want %s at v%d", p.ID, got, r.PlacementVersion(), wrong.addr, v2.Version())
	}
	if _, err := r.Guidance(p.ID, 4); err != nil {
		t.Fatalf("guidance through the router after the redirect: %v", err)
	}
}

// within fails the test if f has not returned after d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestPlacementDisagreementReadRedirects: two members on different placement
// versions — A on v1 over {A, B} with p owned by B, B on v2 over {A} alone —
// each believe the other owns p. Reads were once relayed server-side, and
// here the relays chased each other: the read never returned and neither did
// Server.Close. Now A answers the read with the redirect its map implies, a
// router that knows both members comes back within its two attempts with
// that redirect as the error, and succeeds as soon as A is handed v2.
func TestPlacementDisagreementReadRedirects(t *testing.T) {
	const deadline = 5 * time.Second
	type member struct {
		h    *hive.Hive
		srv  *Server
		addr string
	}
	var a, b member
	for _, nd := range []*member{&a, &b} {
		nd.h = hive.New("fleet")
		nd.srv = NewServer(nd.h)
		nd.srv.Logf = t.Logf
		addr, err := nd.srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nd.addr = addr
		srv := nd.srv
		defer within(t, deadline, "Server.Close", func() { _ = srv.Close() })
	}
	v1 := ring.New([]string{a.addr, b.addr}, ring.DefaultVNodes, 42)
	v2 := ring.NewVersion(2, []string{a.addr}, ring.DefaultVNodes, 42)
	var p *prog.Program
	for i := 0; p == nil; i++ {
		if c := buildNamedCrashy(t, fmt.Sprintf("disputed-%d", i)); v1.Owner(c.ID) == b.addr {
			p = c
		}
	}
	for _, nd := range []*member{&a, &b} {
		if err := nd.h.RegisterProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	a.srv.SetPlacement(v1, a.addr)
	b.srv.SetPlacement(v2, b.addr)

	bare := Dial(a.addr)
	defer bare.Close()
	within(t, deadline, "a read at a member that disagrees with the owner it names", func() {
		var re *RedirectError
		if _, _, err := bare.FixesSince(p.ID, 0); !errors.As(err, &re) || re.Owner != b.addr || re.Version != 1 {
			t.Errorf("fixes at A: err = %v, want a redirect to %s at v1", err, b.addr)
		}
		re = nil
		if _, err := bare.Guidance(p.ID, 4); !errors.As(err, &re) || re.Owner != b.addr {
			t.Errorf("guidance at A: err = %v, want a redirect to %s", err, b.addr)
		}
	})

	r := NewRouter(a.addr, b.addr)
	defer r.Close()
	within(t, deadline, "a routed read across the disagreement", func() {
		var re *RedirectError
		if _, _, err := r.FixesSince(p.ID, 0); !errors.As(err, &re) {
			t.Errorf("routed fixes across the disagreement: err = %v, want one wrapping a redirect", err)
		}
		re = nil
		if _, err := r.Guidance(p.ID, 4); !errors.As(err, &re) {
			t.Errorf("routed guidance across the disagreement: err = %v, want one wrapping a redirect", err)
		}
	})

	a.srv.SetPlacement(v2, a.addr)
	within(t, deadline, "a routed read once the members agree", func() {
		if _, _, err := r.FixesSince(p.ID, 0); err != nil {
			t.Errorf("routed fixes once A holds v2: %v", err)
		}
		if _, err := r.Guidance(p.ID, 4); err != nil {
			t.Errorf("routed guidance once A holds v2: %v", err)
		}
	})
}

// TestRetryErrorNamesRedirect pins the diagnostic surface: a
// retry-exhausted error must distinguish "owner moved" (a redirect was
// seen: name the program, target, and placement generation) from "owner
// down" (no redirect at the current generation).
func TestRetryErrorNamesRedirect(t *testing.T) {
	corpus := buildRoutedCorpus(t, 4)
	nodes, m := startFleet(t, 2, corpus)
	c := Dial(nodes[0].addr)
	defer c.Close()
	if err := c.Handshake(); err != nil {
		t.Fatal(err)
	}

	c.mu.Lock()
	err := c.retryErrLocked(errors.New("boom"))
	c.mu.Unlock()
	if want := fmt.Sprintf("no redirect seen at placement v%d", m.Version()); !strings.Contains(err.Error(), want) {
		t.Fatalf("owner-down retry error %q lacks %q", err, want)
	}

	// Provoke a redirect: a client submitting a foreign program to the
	// wrong node is told where it lives.
	foreign := pickOwnedBy(t, nodes, corpus, m, nodes[0].addr, false)
	sealed := c.SealTraceBatches(foreign.ID, [][]*trace.Trace{{captureWireTrace(t, foreign, "err-pod", []int64{1})}})
	if _, serr := c.SubmitSealed(sealed); serr == nil {
		t.Fatal("misdirected submit did not redirect")
	}
	c.mu.Lock()
	err = c.retryErrLocked(errors.New("boom"))
	c.mu.Unlock()
	want := fmt.Sprintf("last redirect: program %s -> %s at placement v%d", foreign.ID, m.Owner(foreign.ID), m.Version())
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("owner-moved retry error %q lacks %q", err, want)
	}
}
