package softborg

// Cluster-level tests and the E16 scaling bench: a fleet of hive
// processes sharded by the consistent-hash placement ring
// (internal/ring), with per-program ownership enforced at the wire layer by
// one rule (a frame for a program owned elsewhere, submission or read, is
// answered with a redirect naming the owner) and re-homing via exported
// chains.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/hive"
	"repro/internal/journal"
	"repro/internal/netshape"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/ring"
	"repro/internal/trace"
	"repro/internal/wire"
)

// clusterCorpus generates n distinct crash-prone programs.
func clusterCorpus(t testing.TB, n int) []*prog.Program {
	t.Helper()
	out := make([]*prog.Program, n)
	for i := range out {
		p, _, err := proggen.Generate(proggen.Spec{
			Seed: uint64(200 + i), Depth: 4,
			Bugs:         []proggen.BugKind{proggen.BugCrash},
			TriggerWidth: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

// clusterTrace captures one real trace of p under full capture.
func clusterTrace(t testing.TB, p *prog.Program, n int) *trace.Trace {
	t.Helper()
	input := make([]int64, p.NumInputs)
	for k := range input {
		input[k] = int64((n*13 + k*7) % 160)
	}
	col := trace.NewCollector(p, trace.CaptureFull, 0, uint64(n+1))
	m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	return col.Finish(fmt.Sprintf("pod-%d", n%4), uint64(n), res, input, trace.PrivacyHashed, "fleet")
}

// submitFrame hands h one columnar-encoded batch tagged (session, seq), as
// the wire server does with a frame it has read.
func submitFrame(h *hive.Hive, session string, seq uint64, frame []byte) (dup bool, err error) {
	view, err := trace.DecodeBatch(frame)
	if err != nil {
		return false, err
	}
	defer view.Release()
	return h.SubmitColumnarSession(session, seq, view)
}

// clusterNode is one member of a durable sharded fleet.
type clusterNode struct {
	h     *hive.Hive
	store *journal.Store
	srv   *wire.Server
	addr  string
	dir   string
}

// startClusterNode boots one durable hive with the whole corpus
// registered (registration is metadata; ingest lands only on owners) and
// recovery run against dir.
func startClusterNode(t *testing.T, dir string, corpus []*prog.Program) *clusterNode {
	t.Helper()
	h := hive.New("fleet")
	for _, p := range corpus {
		if err := h.RegisterProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Recover(store); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(h)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &clusterNode{h: h, store: store, srv: srv, addr: addr, dir: dir}
}

// TestE16KillOneHiveRebalance is experiment E16's correctness half: a
// 3-hive durable fleet ingests sealed frames routed by the placement
// ring; one hive is killed mid-run; its programs are re-homed onto the
// survivors from its own data dir (snapshot export -> import, recovery
// through the DecodeChain path); and the parked plus already-acked frames
// drain again through the router. Required outcome: every program
// re-homed, zero acked traces lost, zero traces double-applied, and
// steering converging from the new owner.
func TestE16KillOneHiveRebalance(t *testing.T) {
	corpus := clusterCorpus(t, 6)
	nodes := make([]*clusterNode, 3)
	addrs := make([]string, 3)
	for i := range nodes {
		nodes[i] = startClusterNode(t, t.TempDir(), corpus)
		addrs[i] = nodes[i].addr
	}
	m1 := ring.New(addrs, ring.DefaultVNodes, 42)
	for _, nd := range nodes {
		nd.srv.SetPlacement(m1, nd.addr)
	}
	byAddr := func(addr string) *clusterNode {
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

	// Phase 1: seal 8 chunks of 16 traces per program; drain the first 4
	// (acked fleet-wide), park the rest.
	const chunks, perChunk, drained = 8, 16, 4
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
	for _, p := range corpus {
		st, err := byAddr(m1.Owner(p.ID)).h.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingested != drained*perChunk {
			t.Fatalf("phase-1 owner of %s ingested %d, want %d", p.ID, st.Ingested, drained*perChunk)
		}
	}

	// Kill the owner of program 0 mid-simulation.
	victim := byAddr(m1.Owner(corpus[0].ID))
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

	// Takeover: export each of the victim's chains from its data dir and
	// import it on the owner the shrunken ring assigns.
	m2 := m1.Without(victim.addr)
	deadStore, err := journal.Open(victim.dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rehomed := 0
	for _, p := range victimOwned {
		chain, err := deadStore.ExportChain(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if chain == nil {
			t.Fatalf("takeover export lost program %s", p.ID)
		}
		if err := byAddr(m2.Owner(p.ID)).h.ImportProgram(chain); err != nil {
			t.Fatal(err)
		}
		rehomed++
	}
	if err := deadStore.Close(); err != nil {
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

	// Drain everything through the stale router: the parked chunks plus a
	// verbatim resubmission of every already-acked chunk, from the copies a
	// lost ack would have left. The victim's
	// death forces a placement refresh; acked frames must dup-ack on the
	// new owner (the session table traveled inside the chain).
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
		st, err := byAddr(m2.Owner(p.ID)).h.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingested != chunks*perChunk {
			t.Fatalf("program %s ingested %d, want %d (lost or double-applied traces)", p.ID, st.Ingested, chunks*perChunk)
		}
	}

	// Steering converges from the new owner: a pod pulling guidance for a
	// re-homed program through the router closes frontiers the migrated
	// tree still had open.
	moved := victimOwned[0]
	newOwner := byAddr(m2.Owner(moved.ID))
	tree, err := newOwner.h.Tree(moved.ID)
	if err != nil {
		t.Fatal(err)
	}
	before := tree.FrontierCount()
	if before == 0 {
		t.Fatalf("migrated tree for %s has no open frontiers to steer", moved.ID)
	}
	buffer := pod.NewBufferedFor(router, moved.ID)
	pd, err := pod.New(pod.Config{
		Program: moved, ID: "steer-pod", Hive: buffer,
		Privacy: trace.PrivacyHashed, Salt: "fleet",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Closing a frontier can expose deeper ones, so convergence means the
	// steering loop drives the frontier set to zero, not that one pull
	// shrinks it.
	steered := 0
	for round := 0; round < 32; round++ {
		tree, err = newOwner.h.Tree(moved.ID)
		if err != nil {
			t.Fatal(err)
		}
		if tree.FrontierCount() == 0 {
			break
		}
		ran, err := pd.PullGuidance(16)
		if err != nil {
			t.Fatal(err)
		}
		if ran == 0 {
			t.Fatalf("open frontiers (%d) but the new owner served no guidance", tree.FrontierCount())
		}
		steered += ran
		if err := pd.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := buffer.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if steered == 0 {
		t.Fatal("new owner served no guidance for the re-homed program")
	}
	tree, err = newOwner.h.Tree(moved.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after := tree.FrontierCount(); after != 0 {
		t.Fatalf("steering not converging after re-homing: frontier %d open after %d steered runs (started at %d)", after, steered, before)
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

// benchClusterPool generates candidate programs for the scaling bench and
// picks a fixed-size subset whose ring ownership is balanced on both the
// 2-node and 3-node fleets, so every subcase pushes the identical byte
// volume and the ideal split. Proxy ports are pinned (see NewAt) to keep
// the rings — and therefore the chosen subset — identical across runs.
func benchClusterPick(b *testing.B, pool []*prog.Program, want int, rings []*ring.Map) []*prog.Program {
	b.Helper()
	quota := make([]map[string]int, len(rings))
	for i, m := range rings {
		quota[i] = make(map[string]int)
		for _, node := range m.Nodes() {
			quota[i][node] = want / len(m.Nodes())
		}
	}
	var chosen []*prog.Program
	for _, p := range pool {
		fits := true
		for i, m := range rings {
			if quota[i][m.Owner(p.ID)] == 0 {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		for i, m := range rings {
			quota[i][m.Owner(p.ID)]--
		}
		chosen = append(chosen, p)
		if len(chosen) == want {
			return chosen
		}
	}
	b.Fatalf("candidate pool exhausted at %d/%d balanced programs", len(chosen), want)
	return nil
}

// BenchmarkClusterIngest is experiment E16's scaling half: the same
// six-program sealed drain submitted through 1, 2, and 3 hives, each hive
// behind its own bandwidth-capped uplink (netshape, 12 MiB/s per hive,
// 20 ms RTT — the regime where ingest is bandwidth-bound, so fleet
// scaling must come from programs draining through disjoint uplinks in
// parallel). Program placement is ideal (balanced by construction);
// ownership balance in general is the ring's own property
// (ring.TestDistributionBalance). The 20 ms hello round trip is past the
// compression floor on every uplink, so every subcase ships the same
// (compressed) bytes.
func BenchmarkClusterIngest(b *testing.B) {
	const (
		perUplink = 12 << 20
		rtt       = 20 * time.Millisecond
		nPrograms = 6
		chunks    = 10
		perChunk  = 128
	)
	// Stable proxy ports: the ring hashes proxy addresses, so stable ports
	// pin ownership across runs. Each subcase gets its own port block.
	ports := map[int][]string{
		1: {"127.0.0.1:29411"},
		2: {"127.0.0.1:29421", "127.0.0.1:29422"},
		3: {"127.0.0.1:29431", "127.0.0.1:29432", "127.0.0.1:29433"},
	}
	pool := make([]*prog.Program, 0, 40)
	for i := 0; i < 40; i++ {
		p, _, err := proggen.Generate(proggen.Spec{
			Seed: uint64(500 + i), Depth: 6, Loops: 2, Syscalls: 1, NumInputs: 2, DetBranches: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		pool = append(pool, p)
	}
	chosen := benchClusterPick(b, pool, nPrograms, []*ring.Map{
		ring.New(ports[2], ring.DefaultVNodes, 42),
		ring.New(ports[3], ring.DefaultVNodes, 42),
	})
	corpora := make(map[string][][]*trace.Trace, nPrograms)
	for _, p := range chosen {
		corpora[p.ID] = shapedCorpus(b, p, chunks, perChunk)
	}

	for _, n := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("hives=%d", n), func(b *testing.B) {
			backends := make([]*nullHive, n)
			for i := 0; i < n; i++ {
				backends[i] = &nullHive{}
				srv := wire.NewServer(backends[i])
				srv.Logf = func(string, ...any) {}
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				proxy, err := netshape.NewAt(addr, ports[n][i], netshape.Config{
					RTT:       rtt,
					Bandwidth: perUplink,
					Seed:      42,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer proxy.Close()
				srv.SetPlacement(ring.New(ports[n], ring.DefaultVNodes, 42), ports[n][i])
			}

			router := wire.NewRouter(ports[n]...)
			defer router.Close()
			var allSealed []pod.SealedBatch
			for _, p := range chosen {
				allSealed = append(allSealed, router.SealTraceBatches(p.ID, corpora[p.ID])...)
			}
			total := nPrograms * chunks * perChunk

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Every iteration resends the same frames; SubmitSealed
				// consumes what it acknowledges, so each sends a copy.
				b.StopTimer()
				frames := cloneSealed(allSealed)
				b.StartTimer()
				acc, err := router.SubmitSealed(frames)
				if err != nil {
					b.Fatal(err)
				}
				for k, ok := range acc {
					if !ok {
						b.Fatalf("frame %d not accepted", k)
					}
				}
			}
			b.StopTimer()
			var ingested int64
			for _, bk := range backends {
				ingested += bk.ingested.Load()
			}
			if ingested != int64(b.N*total) {
				b.Fatalf("fleet ingested %d, want %d", ingested, b.N*total)
			}
			if elapsed := b.Elapsed(); elapsed > 0 {
				b.ReportMetric(float64(b.N*total)/elapsed.Seconds(), "traces/sec")
			}
		})
	}
}

// cloneSealed copies frames, payloads included: the frames a lost ack
// leaves the caller holding. SubmitSealed consumes the frames it
// acknowledges, so a test that resubmits an acknowledged frame clones it
// before the first submit and resubmits the clone.
func cloneSealed(sealed []pod.SealedBatch) []pod.SealedBatch {
	out := make([]pod.SealedBatch, len(sealed))
	for i, sb := range sealed {
		sb.Payload = bytes.Clone(sb.Payload)
		out[i] = sb
	}
	return out
}
