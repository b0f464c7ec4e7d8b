package softborg

// E18 — cold-standby recovery from the archive tier (PR 10): a durable
// sharded fleet tiers its snapshot chains and sealed WAL segments into one
// shared object store; one hive is killed AND its data directory deleted;
// a cold standby rebuilds the dead hive's programs from the archive alone
// and re-homes them onto the survivors. Required outcome: zero acked-trace
// loss, zero double-apply, and exactly-once preserved across a session
// population larger than the live dedup cache (>4096 sessions).

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/archive"
	"repro/internal/hive"
	"repro/internal/journal"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/ring"
	"repro/internal/trace"
	"repro/internal/wire"
)

// archiveNode is one member of a durable fleet that tiers into a shared
// archive store.
type archiveNode struct {
	*clusterNode
	arc *archive.Archiver
}

// startArchiveNode boots a durable hive whose journal is tethered to the
// shared object store: the chain fetcher is armed before recovery (a boot
// against a pruned data dir rehydrates from the archive) and the archiver
// writes manifests under the node's own writer name.
func startArchiveNode(t *testing.T, dir string, corpus []*prog.Program, obj archive.ObjectStore) *archiveNode {
	t.Helper()
	h := hive.New("fleet")
	h.Logf = func(string, ...any) {}
	for _, p := range corpus {
		if err := h.RegisterProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store.SetChainFetcher(archive.ChainFetcher(obj))
	if err := h.Recover(store); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(h)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	arc := archive.New(store, obj, archive.Options{Writer: addr})
	return &archiveNode{
		clusterNode: &clusterNode{h: h, store: store, srv: srv, addr: addr, dir: dir},
		arc:         arc,
	}
}

// TestE18ColdStandbyArchiveRecovery is experiment E18's correctness half.
// Unlike E16 (which recovers the victim from its surviving data dir), the
// victim's directory is DELETED after the kill — the archive store is the
// only copy — and recovery must be semantically identical: every acked
// frame dup-acks on the new owner, nothing double-applies, and the >4096
// distinct cold sessions ingested before the kill keep their exactly-once
// windows through archive.Load -> ImportProgram.
func TestE18ColdStandbyArchiveRecovery(t *testing.T) {
	corpus := clusterCorpus(t, 4)
	obj, err := archive.NewDirStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*archiveNode, 3)
	addrs := make([]string, 3)
	for i := range nodes {
		nodes[i] = startArchiveNode(t, t.TempDir(), corpus, obj)
		addrs[i] = nodes[i].addr
	}
	m1 := ring.New(addrs, ring.DefaultVNodes, 42)
	for _, nd := range nodes {
		nd.srv.SetPlacement(m1, nd.addr)
	}
	byAddr := func(addr string) *archiveNode {
		for _, nd := range nodes {
			if nd.addr == addr {
				return nd
			}
		}
		t.Fatalf("no node at %s", addr)
		return nil
	}

	router := wire.NewRouter(addrs...)
	defer router.Close()

	// Phase 1: seal 6 chunks of 8 traces per program; drain the first 3
	// fleet-wide, park the rest.
	const chunks, perChunk, drained = 6, 8, 3
	sealedBy := make(map[string][]pod.SealedBatch)
	for pi, p := range corpus {
		batches := make([][]*trace.Trace, chunks)
		for c := range batches {
			batch := make([]*trace.Trace, perChunk)
			for j := range batch {
				batch[j] = clusterTrace(t, p, pi*chunks*perChunk+c*perChunk+j)
			}
			batches[c] = batch
		}
		sealed := router.SealTraceBatches(p.ID, batches)
		sealedBy[p.ID] = cloneSealed(sealed)
		acc, err := router.SubmitSealed(sealed[:drained])
		if err != nil {
			t.Fatalf("phase-1 drain for program %d: %v", pi, err)
		}
		for c, ok := range acc {
			if !ok {
				t.Fatalf("phase-1 chunk %d of program %d not acked", c, pi)
			}
		}
	}

	// Phase 2: flood the victim-owned program with more distinct sessions
	// than the live dedup cache holds — the unbounded-dedup half of E18.
	// One shared trace; dedup is keyed by (session, seq), not content.
	victim := byAddr(m1.Owner(corpus[0].ID))
	coldProg := corpus[0]
	const coldSessions = 4096 + 32
	coldFrame, err := trace.EncodeBatch(coldProg.ID, []*trace.Trace{clusterTrace(t, coldProg, 9000)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < coldSessions; i++ {
		dup, err := submitFrame(victim.h, fmt.Sprintf("cold-%d", i), 1, coldFrame)
		if err != nil || dup {
			t.Fatalf("cold session %d: dup=%v err=%v", i, dup, err)
		}
	}

	// Every node tiers its chains into the shared store; after the sync the
	// archive alone covers everything acked so far.
	for _, nd := range nodes {
		if err := nd.arc.SyncAll(); err != nil {
			t.Fatalf("archive sync on %s: %v", nd.addr, err)
		}
	}
	if st := victim.arc.Stats(); st.SegmentsWritten == 0 || st.ManifestsWritten == 0 {
		t.Fatalf("victim archived nothing: %+v", st)
	}

	// Kill the victim and DELETE its data directory — the difference from
	// E16. The archive store is now the only copy of its programs.
	var victimOwned []*prog.Program
	for _, p := range corpus {
		if m1.Owner(p.ID) == victim.addr {
			victimOwned = append(victimOwned, p)
		}
	}
	if err := victim.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := victim.store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(victim.dir); err != nil {
		t.Fatal(err)
	}

	// Cold standby: rebuild purely from the archive and re-home onto the
	// shrunken ring.
	m2 := m1.Without(victim.addr)
	chains, closer, err := hive.ExportFromArchive(obj, "", corpus, "")
	if err != nil {
		t.Fatalf("cold-standby recovery: %v", err)
	}
	rehomed := 0
	for _, p := range victimOwned {
		chain, ok := chains[p.ID]
		if !ok {
			t.Fatalf("archive recovery lost program %s", p.ID)
		}
		if err := byAddr(m2.Owner(p.ID)).h.ImportProgram(chain); err != nil {
			t.Fatal(err)
		}
		rehomed++
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if rehomed != len(victimOwned) || rehomed == 0 {
		t.Fatalf("re-homed %d of %d victim programs", rehomed, len(victimOwned))
	}
	for _, nd := range nodes {
		if nd != victim {
			nd.srv.SetPlacement(m2, nd.addr)
		}
	}

	// Zero loss, zero double-apply: drain the parked chunks plus a verbatim
	// resubmission of every acked chunk (from the copies a lost ack would
	// have left) through the stale router.
	for pi, p := range corpus {
		acc, err := router.SubmitSealed(sealedBy[p.ID])
		if err != nil {
			t.Fatalf("post-kill drain for program %d: %v", pi, err)
		}
		for c, ok := range acc {
			if !ok {
				t.Fatalf("post-kill chunk %d of program %d not delivered", c, pi)
			}
		}
	}
	for _, p := range corpus {
		want := int64(chunks * perChunk)
		if p.ID == coldProg.ID {
			want += coldSessions
		}
		st, err := byAddr(m2.Owner(p.ID)).h.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingested != want {
			t.Fatalf("program %s ingested %d, want %d (lost or double-applied traces)", p.ID, st.Ingested, want)
		}
	}

	// Exactly-once across >4096 sessions: every cold session's acked frame
	// dup-acks on the new owner, and the duplicates move nothing.
	newOwner := byAddr(m2.Owner(coldProg.ID))
	before, err := newOwner.h.ProgramStats(coldProg.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < coldSessions; i++ {
		dup, err := submitFrame(newOwner.h, fmt.Sprintf("cold-%d", i), 1, coldFrame)
		if err != nil {
			t.Fatalf("cold session %d resubmit: %v", i, err)
		}
		if !dup {
			t.Fatalf("cold session %d re-applied after archive recovery (exactly-once broken)", i)
		}
	}
	after, _ := newOwner.h.ProgramStats(coldProg.ID)
	if after.Ingested != before.Ingested {
		t.Fatalf("cold duplicates moved ingest: %d -> %d", before.Ingested, after.Ingested)
	}

	for _, nd := range nodes {
		if nd != victim {
			if err := nd.store.Close(); err != nil {
				t.Fatal(err)
			}
			_ = nd.srv.Close()
		}
	}
}
