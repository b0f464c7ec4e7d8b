package main

// sut.go is the only file of the benchmark that calls into the system under
// test. It binds to the entry points ROADMAP items 1 and 5 keep (sealed
// columnar session frames in, guidance and fixes out, Recover / Export /
// Import / archive for state), so a PR that deletes the legacy submit routes
// or merges the program-state shapes does not have to edit the benchmark.
// The per-layer replays at the bottom additionally call each layer's public
// functions in isolation; they run only with -trace 1.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/exectree"
	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/hive"
	"repro/internal/journal"
	"repro/internal/netshape"
	"repro/internal/pod"
	"repro/internal/population"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// salt is the fleet-wide input-digest salt; cmd/hive and cmd/pod use the
// same literal.
const salt = "fleet"

// corpusSeed fixes the generated programs. The --seed flag varies the inputs
// the programs receive (and the order they arrive in), never their shape:
// runs with different seeds are then repeats of one workload, which is what
// the spread of a metric over seeds has to mean.
const corpusSeed = 1

// The other files of the benchmark name the system's types only through
// these aliases, so they import nothing of the repository.
type (
	program = prog.Program
	user    = population.User
	rng     = stats.RNG
	// frame is the traces of one frame-to-be: what a pod hands its client
	// to seal.
	frame = []*trace.Trace

	hiveT    = hive.Hive
	backendT = pod.HiveClient
	fsT      = journal.FS
)

const (
	captureFull = trace.CaptureFull
	frameTraces = 256 // pod.BufferedClient cuts drains into chunks of this many traces
)

func newRNG(seed uint64) *rng { return stats.NewRNG(seed) }

// The four program shapes. Seeds are fixed (see corpusSeed).
func bulkProgram(i int) (*program, error) {
	return generate(proggen.Spec{Seed: 7100 + uint64(i), Depth: 6, Loops: 2, Syscalls: 1, NumInputs: 2,
		DetBranches: 10, Bugs: []proggen.BugKind{proggen.BugCrash}})
}

func mixedProgram(i int) (*program, error) {
	return generate(proggen.Spec{Seed: 7200 + uint64(i), Depth: 8, Loops: 2, Syscalls: 1, NumInputs: 4,
		DetBranches: 12, Bugs: []proggen.BugKind{proggen.BugCrash}})
}

func recoverProgram(i int) (*program, error) {
	return generate(proggen.Spec{Seed: 7300 + uint64(i), Depth: 8, Loops: 2, Syscalls: 1, NumInputs: 3,
		DetBranches: 10})
}

// deployedProgram is program i of the corpus cmd/hive and cmd/pod share.
func deployedProgram(i int) (*program, error) {
	return generate(proggen.CorpusSpec(corpusSeed, i))
}

// programs builds n programs of one shape.
func programs(n int, shape func(int) (*program, error)) ([]*program, error) {
	out := make([]*program, n)
	for i := range out {
		p, err := shape(i)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// client is what a benchmark worker needs from a hive connection. Both
// *wire.Client and the traced run's *timedClient satisfy it, and
// pod.NewBufferedFor picks its sealed exactly-once drain path for either.
type client interface {
	pod.HiveClient
	pod.SealedStreamer
}

var _ client = (*wire.Client)(nil)

// generate builds one program of the fixed corpus.
func generate(spec proggen.Spec) (*prog.Program, error) {
	p, _, err := proggen.Generate(spec)
	return p, err
}

// zipfInputs draws n input vectors for p: every element is a Zipf(s) rank
// over the default 256-value domain, so hot paths repeat and rare ones keep
// turning up.
func zipfInputs(rng *stats.RNG, p *prog.Program, n int, s float64) [][]int64 {
	z := stats.NewZipf(rng, 256, s)
	flat := make([]int64, n*p.NumInputs)
	out := make([][]int64, n)
	for i := range out {
		in := flat[i*p.NumInputs : (i+1)*p.NumInputs]
		for j := range in {
			in[j] = int64(z.Next())
		}
		out[i] = in
	}
	return out
}

// capture runs p once per input under a trace collector, the way a pod
// does, and returns the scrubbed traces it would ship.
func capture(p *program, mode trace.CaptureMode, podID string, inputs [][]int64) ([]*trace.Trace, error) {
	col := trace.NewCollector(p, mode, 0, 1)
	out := make([]*trace.Trace, len(inputs))
	for i, in := range inputs {
		col.Reset()
		m, err := prog.NewMachine(p, prog.Config{Input: in, Observer: col})
		if err != nil {
			return nil, fmt.Errorf("capture %s: %w", p.Name, err)
		}
		out[i] = col.Finish(podID, uint64(i), m.Run(), in, trace.PrivacyHashed, salt)
	}
	return out, nil
}

// frames cuts traces into frameTraces-sized frames; a short tail is dropped.
func frames(traces []*trace.Trace) []frame {
	out := make([]frame, 0, len(traces)/frameTraces)
	for ; len(traces) >= frameTraces; traces = traces[frameTraces:] {
		out = append(out, traces[:frameTraces])
	}
	return out
}

// captureFrames captures one trace per input in the given mode.
func captureFrames(p *program, mode trace.CaptureMode, podID string, inputs [][]int64) ([]frame, error) {
	traces, err := capture(p, mode, podID, inputs)
	if err != nil {
		return nil, err
	}
	return frames(traces), nil
}

// captureMixedFrames captures even inputs in full and odd inputs
// external-only, so every frame holds both kinds and the hive reconstructs
// half of what it ingests.
func captureMixedFrames(p *program, podID string, inputs [][]int64) ([]frame, error) {
	var even, odd [][]int64
	for i, in := range inputs {
		if i%2 == 0 {
			even = append(even, in)
		} else {
			odd = append(odd, in)
		}
	}
	full, err := capture(p, trace.CaptureFull, podID, even)
	if err != nil {
		return nil, err
	}
	ext, err := capture(p, trace.CaptureExternalOnly, podID, odd)
	if err != nil {
		return nil, err
	}
	mixed := make([]*trace.Trace, 0, len(inputs))
	for i := range full {
		mixed = append(mixed, full[i])
		if i < len(ext) {
			mixed = append(mixed, ext[i])
		}
	}
	return frames(mixed), nil
}

// users builds the simulated end users whose inputs drive real pods.
func users(seed uint64, n int) ([]*population.User, int64, error) {
	pop, err := population.New(population.Config{Seed: seed, Users: n})
	if err != nil {
		return nil, 0, err
	}
	return pop.Users(), pop.Domain(), nil
}

// newPod is a pod in cmd/pod's default configuration (external-only
// capture, hashed privacy, batch 16) uploading through a buffer bound to its
// program, so every drain is sealed columnar session frames.
func newPod(p *prog.Program, id string, seed uint64, u *population.User, c client) (*pod.Pod, *pod.BufferedClient, error) {
	buf := pod.NewBufferedFor(c, p.ID)
	pd, err := pod.New(pod.Config{
		Program:  p,
		ID:       id,
		Hive:     buf,
		Salt:     salt,
		Seed:     seed,
		Syscalls: u.Syscalls(),
	})
	return pd, buf, err
}

// node is one running durable hive: journal, hive and TCP server.
type node struct {
	hive  *hive.Hive
	store *journal.Store
	srv   *wire.Server
	addr  string
}

// newHive registers the corpus on an empty hive.
func newHive(corpus []*prog.Program) (*hive.Hive, error) {
	h := hive.New(salt)
	h.Logf = func(string, ...any) {}
	for _, p := range corpus {
		if err := h.RegisterProgram(p); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// openJournal opens dir with cmd/hive's group-commit default; fsync and the
// file system are the workload's.
func openJournal(dir string, fsync bool, fs journal.FS) (*journal.Store, error) {
	return journal.Open(dir, journal.Options{Fsync: fsync, MaxBatch: 256, FS: fs})
}

// recoverHive is a reboot: open the data directory and recover a fresh hive
// from it. The store is attached to the hive; the caller closes it.
func recoverHive(dir string, corpus []*prog.Program, fsync bool, fs journal.FS) (*hive.Hive, *journal.Store, error) {
	h, err := newHive(corpus)
	if err != nil {
		return nil, nil, err
	}
	store, err := openJournal(dir, fsync, fs)
	if err != nil {
		return nil, nil, err
	}
	h.SetCompactEvery(8)
	if err := h.Recover(store); err != nil {
		_ = store.Close()
		return nil, nil, err
	}
	return h, store, nil
}

// recoverOnce is step 1 of the state cycle alone: reboot on fx.dir, timed,
// then compare with want.
func recoverOnce(fx *fixture, want map[string]programState) (seconds float64, err error) {
	t0 := time.Now()
	h, store, err := recoverHive(fx.dir, fx.corpus, false, nil)
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	seconds = time.Since(t0).Seconds()
	defer store.Close()
	got, err := snapshotState(h, fx.corpus)
	if err != nil {
		return 0, err
	}
	return seconds, sameState("recovered hive", want, got)
}

// boot recovers a hive from dir and serves it on a loopback port. wrap, when
// set, is the traced run's seam between the server and the hive.
func boot(dir string, corpus []*prog.Program, fsync bool, fs journal.FS, wrap func(*hive.Hive) pod.HiveClient) (*node, error) {
	h, store, err := recoverHive(dir, corpus, fsync, fs)
	if err != nil {
		return nil, err
	}
	var backend pod.HiveClient = h
	if wrap != nil {
		backend = wrap(h)
	}
	srv := wire.NewServer(backend)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		_ = store.Close()
		return nil, err
	}
	return &node{hive: h, store: store, srv: srv, addr: addr}, nil
}

// checkpoint snapshots every program and rotates its journal, as cmd/hive's
// background snapshotter does.
func (n *node) checkpoint() error { return n.hive.Checkpoint() }

// close stops serving and closes the journal without a checkpoint, which is
// what killing the process leaves on disk (the OS cache survives).
func (n *node) close() error {
	err := n.srv.Close()
	if derr := n.hive.DurabilityError(); err == nil {
		err = derr
	}
	if cerr := n.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// dial returns a client in its default configuration: columnar frames,
// coalescing and busy-retry offered, compression engaged by the hello
// round trip alone.
func dial(addr string) *wire.Client { return wire.Dial(addr) }

// shape puts the E15 acceptance link (RTT 100 ms, loss 0.5 %, 16 MiB/s)
// in front of addr and returns the link's own address.
func shape(addr string) (shaped string, closeLink func() error, err error) {
	proxy, err := netshape.New(addr, netshape.Config{
		RTT:       100 * time.Millisecond,
		Loss:      0.005,
		Bandwidth: 16 << 20,
		Seed:      42,
	})
	if err != nil {
		return "", nil, err
	}
	return proxy.Addr(), proxy.Close, nil
}

// conn is one worker's connection: the client it talks through (the bare
// wire.Client, or the traced run's timedClient around it) and the wire.Client
// itself for the handshake and the close.
type conn struct {
	client
	raw   *wire.Client
	timed *timedClient // nil in an untraced run
}

// hello dials and negotiates eagerly and reports how long that took.
func (c *conn) hello() (time.Duration, error) {
	t0 := time.Now()
	err := c.raw.Handshake()
	return time.Since(t0), err
}

func (c *conn) close() error { return c.raw.Close() }

// drain is one bulk drain: seal the frames for programID, submit them, wait
// for every ack. It fails unless every frame was accepted.
func (c *conn) drain(programID string, fs []frame) (traces int, lat time.Duration, err error) {
	for _, f := range fs {
		traces += len(f)
	}
	t0 := time.Now()
	if c.timed != nil {
		c.timed.beginDrain()
	}
	ok, err := c.SubmitSealed(c.SealTraceBatches(programID, fs))
	lat = time.Since(t0)
	if c.timed != nil {
		c.timed.endDrain(t0, traces)
	}
	if err != nil {
		return 0, lat, fmt.Errorf("drain: %w", err)
	}
	for i := range fs {
		if i >= len(ok) || !ok[i] {
			return 0, lat, fmt.Errorf("drain: frame %d of %d not accepted", i, len(fs))
		}
	}
	return traces, lat, nil
}

// podUnit is one real pod with its upload buffer and the user feeding it.
type podUnit struct {
	pd       *pod.Pod
	buf      *pod.BufferedClient
	user     *user
	uploaded int64 // pod.Stats().TracesUploaded at the last drain
}

func newPodUnit(p *program, id string, seed uint64, u *user, cn *conn) (*podUnit, error) {
	pd, buf, err := newPod(p, id, seed, u, cn.client)
	if err != nil {
		return nil, err
	}
	return &podUnit{pd: pd, buf: buf, user: u}, nil
}

// run executes the user's next n inputs.
func (u *podUnit) run(n int, domain int64) error {
	arity := u.pd.Program().NumInputs
	for i := 0; i < n; i++ {
		if _, err := u.pd.RunOnce(u.user.NextInput(arity, domain)); err != nil {
			return err
		}
	}
	return nil
}

// drain flushes the pod and drains its buffer, and reports how many traces
// and frames that acknowledged. It fails if anything stays queued.
func (u *podUnit) drain(cn *conn) (traces, nframes int, lat time.Duration, err error) {
	t0 := time.Now()
	if cn.timed != nil {
		cn.timed.beginDrain()
	}
	err = u.pd.Flush()
	if err == nil {
		err = u.buf.Drain()
	}
	lat = time.Since(t0)
	now := u.pd.Stats().TracesUploaded
	traces = int(now - u.uploaded)
	u.uploaded = now
	if cn.timed != nil {
		cn.timed.endDrain(t0, traces)
	}
	if err != nil {
		return 0, 0, lat, err
	}
	if left := u.buf.Pending(); left != 0 {
		return 0, 0, lat, fmt.Errorf("pod drain left %d traces unacknowledged", left)
	}
	return traces, (traces + frameTraces - 1) / frameTraces, lat, nil
}

func (u *podUnit) syncFixes() error { return u.pd.SyncFixes() }

// pullGuidance fetches up to max cases and runs them all on the pod; the
// pod rejects a case for another program or one its VM cannot run.
func (u *podUnit) pullGuidance(max int) (int, error) { return u.pd.PullGuidance(max) }

// sealedFrame is a frame set-up submitted and the hive acknowledged, kept to
// check that resubmitting it is answered as a duplicate.
type sealedFrame struct {
	session string
	seq     uint64
	enc     []byte
}

// grown is the durable state grow left in a directory.
type grown struct {
	traces int64
	want   map[string]programState
	dup    sealedFrame
}

// grow builds durable state without a network. For every program, pass j
// ingests slices[program][j] repeat times, each frame under its own
// (session, seq) tag; a checkpoint follows every pass but the last suffix
// ones, which stay in the WAL. The store is then closed without a final
// checkpoint — what a killed hive leaves behind. Programs are ingested by
// nproc goroutines, as concurrent connections would.
func grow(dir string, corpus []*program, slices [][][]frame, repeat, suffix int) (*grown, error) {
	h, store, err := recoverHive(dir, corpus, false, nil)
	if err != nil {
		return nil, err
	}
	g, err := growInto(h, corpus, slices, repeat, suffix)
	if derr := h.DurabilityError(); err == nil {
		err = derr
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return g, err
}

func growInto(h *hive.Hive, corpus []*program, slices [][][]frame, repeat, suffix int) (*grown, error) {
	g := &grown{}
	passes := len(slices[0])
	const lanes = 2
	for pass := 0; pass < passes; pass++ {
		var wg sync.WaitGroup
		errs := make([]error, lanes)
		counts := make([]int64, lanes)
		for lane := 0; lane < lanes; lane++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				var enc []byte
				for pi := lane; pi < len(corpus); pi += lanes {
					for r := 0; r < repeat; r++ {
						for fi, f := range slices[pi][pass] {
							enc, errs[lane] = trace.AppendBatch(enc[:0], corpus[pi].ID, f)
							if errs[lane] != nil {
								return
							}
							session := fmt.Sprintf("grow-%d-%d-%d-%d", pi, pass, r, fi/2)
							seq := uint64(fi%2) + 1
							if _, errs[lane] = submitInProcess(h, enc, session, seq); errs[lane] != nil {
								return
							}
							counts[lane] += int64(len(f))
							if pi == 0 && pass == 0 && r == 0 && fi == 0 {
								g.dup = sealedFrame{session: session, seq: seq, enc: append([]byte(nil), enc...)}
							}
						}
					}
				}
			}(lane)
		}
		wg.Wait()
		for lane := range errs {
			if errs[lane] != nil {
				return nil, fmt.Errorf("grow: %w", errs[lane])
			}
			g.traces += counts[lane]
		}
		if pass < passes-suffix {
			if err := h.Checkpoint(); err != nil {
				return nil, fmt.Errorf("grow: checkpoint: %w", err)
			}
		}
	}
	var err error
	g.want, err = snapshotState(h, corpus)
	return g, err
}

// resubmit hands h a frame it has already acknowledged and reports an error
// unless it is answered as a duplicate.
func resubmit(h pod.ColumnarSubmitter, f sealedFrame) error {
	dup, err := submitInProcess(h, f.enc, f.session, f.seq)
	if err != nil {
		return fmt.Errorf("resubmitted frame: %w", err)
	}
	if !dup {
		return errors.New("resubmitted frame was applied again, not answered as a duplicate")
	}
	return nil
}

// submitInProcess applies one sealed-equivalent frame to h without a
// network: the traces are encoded once into the columnar batch form and
// handed over as a view tagged (session, seq), exactly what wire.Server does
// with a frame it has read. Set-up uses it to grow state quickly.
func submitInProcess(h pod.ColumnarSubmitter, enc []byte, session string, seq uint64) (dup bool, err error) {
	view, err := trace.DecodeBatch(enc)
	if err != nil {
		return false, err
	}
	defer view.Release()
	return h.SubmitColumnarSession(session, seq, view)
}

// programState is what the correctness checks compare between a hive and
// any hive rebuilt from its durable state.
type programState struct {
	Ingested   int64
	Nodes      int64
	Paths      int64
	Executions int64
	Edges      int
	Failures   string // sorted "signature=count" list
}

// snapshotState reads the comparable state of every program.
func snapshotState(h *hive.Hive, corpus []*prog.Program) (map[string]programState, error) {
	out := make(map[string]programState, len(corpus))
	for _, p := range corpus {
		st, err := h.ProgramStats(p.ID)
		if err != nil {
			return nil, err
		}
		tree, err := h.Tree(p.ID)
		if err != nil {
			return nil, err
		}
		ts := tree.Stats()
		sigs := make([]string, 0, len(st.Failures))
		for _, f := range st.Failures {
			sigs = append(sigs, fmt.Sprintf("%s=%d", f.Signature, f.Count))
		}
		sort.Strings(sigs)
		out[p.ID] = programState{
			Ingested:   st.Ingested,
			Nodes:      ts.Nodes,
			Paths:      ts.Paths,
			Executions: ts.Executions,
			Edges:      ts.EdgesCovered,
			Failures:   strings.Join(sigs, ","),
		}
	}
	return out, nil
}

// sameState reports the first difference between two state maps.
func sameState(what string, want, got map[string]programState) error {
	for id, w := range want {
		if g := got[id]; g != w {
			return fmt.Errorf("%s: program %s: got %+v, want %+v", what, id, g, w)
		}
	}
	return nil
}

// totalIngested sums ProgramStats.Ingested over the corpus.
func totalIngested(h *hive.Hive, corpus []*prog.Program) (int64, error) {
	var n int64
	for _, p := range corpus {
		st, err := h.ProgramStats(p.ID)
		if err != nil {
			return 0, err
		}
		n += st.Ingested
	}
	return n, nil
}

// rehome moves every program from src into a fresh in-memory hive through
// ExportProgram and ImportProgram. exportNS and importNS are the summed
// per-program times.
func rehome(src *hive.Hive, corpus []*prog.Program) (dst *hive.Hive, exportNS, importNS int64, err error) {
	dst, err = newHive(corpus)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, p := range corpus {
		t0 := time.Now()
		snap, err := src.ExportProgram(p.ID)
		if err != nil {
			return nil, 0, 0, err
		}
		t1 := time.Now()
		if err := dst.ImportProgram(snap); err != nil {
			return nil, 0, 0, err
		}
		exportNS += t1.Sub(t0).Nanoseconds()
		importNS += time.Since(t1).Nanoseconds()
	}
	return dst, exportNS, importNS, nil
}

// archiveSync ships every chain of store into obj, as the background
// archiver of cmd/hive does on its tick.
func archiveSync(store *journal.Store, obj archive.ObjectStore) error {
	return archive.New(store, obj, archive.Options{Writer: "bench"}).SyncAll()
}

// coldStandby rebuilds every program from the archive alone and imports
// them into a fresh hive: the data directory of the dead hive is not read.
func coldStandby(obj archive.ObjectStore, scratch string, corpus []*prog.Program) (*hive.Hive, error) {
	snaps, store, err := hive.ExportFromArchive(obj, scratch, corpus, salt)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	dst, err := newHive(corpus)
	if err != nil {
		return nil, err
	}
	for _, p := range corpus {
		snap := snaps[p.ID]
		if snap == nil {
			return nil, fmt.Errorf("cold standby: archive holds nothing for %s", p.ID)
		}
		if err := dst.ImportProgram(snap); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// runGuided executes one guidance case on the VM, as a pod would, and
// reports a case that names another program or that the VM rejects.
func runGuided(p *prog.Program, tc guidance.TestCase) error {
	if tc.ProgramID != p.ID {
		return fmt.Errorf("guidance for %s names program %s", p.ID, tc.ProgramID)
	}
	input := tc.Input
	if input == nil {
		input = make([]int64, p.NumInputs)
	}
	m, err := prog.NewMachine(p, prog.Config{Input: input})
	if err != nil {
		return fmt.Errorf("guidance case for %s: %w", p.ID, err)
	}
	m.Run()
	return nil
}

// errLegacyRoute is returned by the seams for the one pod.HiveClient method
// the benchmark never uses: unsealed, unsequenced submission.
var errLegacyRoute = errors.New("benchmark: legacy SubmitTraces route must not be exercised")

// fsType names the file system holding dir, for the environment block.
func fsType(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if (abs == f[1] || strings.HasPrefix(abs, strings.TrimSuffix(f[1], "/")+"/")) && len(f[1]) > len(best) {
			best, typ = f[1], f[2]
		}
	}
	return typ
}

// --- seams: wrappers the traced run installs at existing interfaces ---

// workerOf recovers the benchmark worker from a pod ID: every pod ID the
// benchmark mints starts with "w<worker>-".
func workerOf(podID string) int32 {
	if len(podID) < 2 || podID[0] != 'w' {
		return -1
	}
	n := int32(0)
	for i := 1; i < len(podID) && podID[i] >= '0' && podID[i] <= '9'; i++ {
		n = n*10 + int32(podID[i]-'0')
	}
	return n
}

// timedClient sits between a worker (or its pod.BufferedClient) and the
// wire.Client: it forwards the four calls the benchmark makes and records a
// span and counts for each.
type timedClient struct {
	c      *wire.Client
	tr     *tracer
	worker int32
	progs  map[string]int32
	drain  uint64 // id of this worker's pod.drain span in flight

	payloadBytes int64 // sealed frame bytes
	sealedTraces int64
	unaccepted   int64
}

var _ client = (*timedClient)(nil)

func (t *timedClient) SubmitTraces([]*trace.Trace) error { return errLegacyRoute }

func (t *timedClient) SealTraceBatches(programID string, batches [][]*trace.Trace) []pod.SealedBatch {
	t0 := time.Now()
	sealed := t.c.SealTraceBatches(programID, batches)
	t1 := time.Now()
	traces := 0
	for i := range sealed {
		traces += sealed[i].Count
		t.payloadBytes += int64(len(sealed[i].Payload))
	}
	t.sealedTraces += int64(traces)
	t.tr.record(span{name: spanSeal, parent: t.drain, worker: t.worker, prog: t.progs[programID],
		traces: int32(traces), frames: int32(len(sealed))}, t0, t1)
	return sealed
}

func (t *timedClient) SubmitSealed(sealed []pod.SealedBatch) ([]bool, error) {
	t0 := time.Now()
	ok, err := t.c.SubmitSealed(sealed)
	t1 := time.Now()
	traces, prog := 0, int32(-1)
	for i := range sealed {
		traces += sealed[i].Count
		prog = t.progs[sealed[i].ProgramID]
		if i >= len(ok) || !ok[i] {
			t.unaccepted++
		}
	}
	t.tr.record(span{name: spanWireSubmit, parent: t.drain, worker: t.worker, prog: prog,
		traces: int32(traces), frames: int32(len(sealed))}, t0, t1)
	return ok, err
}

func (t *timedClient) Guidance(programID string, max int) ([]guidance.TestCase, error) {
	t0 := time.Now()
	cases, err := t.c.Guidance(programID, max)
	t.tr.record(span{name: spanWireGuidance, worker: t.worker, prog: t.progs[programID]}, t0, time.Now())
	return cases, err
}

func (t *timedClient) FixesSince(programID string, version int) ([]fix.Fix, int, error) {
	t0 := time.Now()
	fixes, v, err := t.c.FixesSince(programID, version)
	t.tr.record(span{name: spanWireFixes, worker: t.worker, prog: t.progs[programID]}, t0, time.Now())
	return fixes, v, err
}

// beginDrain opens this worker's next pod.drain span: seal and submit spans
// taken until endDrain are its children.
func (t *timedClient) beginDrain() { t.drain = t.tr.id() }

func (t *timedClient) endDrain(start time.Time, traces int) {
	t.tr.record(span{name: spanDrain, id: t.drain, worker: t.worker, prog: -1, traces: int32(traces)}, start, time.Now())
	t.drain = 0
}

// timedBackend sits between wire.Server and the hive. It implements exactly
// pod.HiveClient, pod.ColumnarSubmitter and pod.PressureSink: offering no
// other submit extension keeps the server on the columnar session route it
// takes with a bare *hive.Hive (sut_test.go holds it to that).
type timedBackend struct {
	h     *hive.Hive
	tr    *tracer
	progs map[string]int32
}

var (
	_ pod.HiveClient        = (*timedBackend)(nil)
	_ pod.ColumnarSubmitter = (*timedBackend)(nil)
	_ pod.PressureSink      = (*timedBackend)(nil)
	_ pod.ColumnarSubmitter = (*hive.Hive)(nil)
	_ pod.PressureSink      = (*hive.Hive)(nil)
)

func (b *timedBackend) SubmitTraces([]*trace.Trace) error { return errLegacyRoute }

func (b *timedBackend) SubmitColumnarSession(session string, seq uint64, batch *trace.BatchView) (bool, error) {
	worker, n := int32(-1), batch.Len()
	if n > 0 {
		worker = workerOf(batch.PodID(0))
	}
	prog := b.progs[batch.ProgramID()]
	t0 := time.Now()
	dup, err := b.h.SubmitColumnarSession(session, seq, batch)
	b.tr.record(span{name: spanHiveSubmit, worker: worker, prog: prog, traces: int32(n), frames: 1}, t0, time.Now())
	return dup, err
}

func (b *timedBackend) Guidance(programID string, max int) ([]guidance.TestCase, error) {
	t0 := time.Now()
	cases, err := b.h.Guidance(programID, max)
	b.tr.record(span{name: spanHiveGuidance, worker: -1, prog: b.progs[programID]}, t0, time.Now())
	return cases, err
}

func (b *timedBackend) FixesSince(programID string, version int) ([]fix.Fix, int, error) {
	t0 := time.Now()
	fixes, v, err := b.h.FixesSince(programID, version)
	b.tr.record(span{name: spanHiveFixes, worker: -1, prog: b.progs[programID]}, t0, time.Now())
	return fixes, v, err
}

func (b *timedBackend) SetPressureSource(f func() float64) { b.h.SetPressureSource(f) }

// countingFS is journal.Options.FS for the traced run: the real file system
// with every write and sync counted and, while the tracer is on, recorded
// as a span carrying the file name.
type countingFS struct {
	journal.FS
	tr    *tracer
	progs map[string]int32 // journal.FileKey(program ID) → corpus index

	writes, writeBytes, syncs atomic.Int64
}

func newCountingFS(tr *tracer, corpus []*prog.Program) *countingFS {
	fs := &countingFS{FS: journal.OSFS(), tr: tr, progs: make(map[string]int32, len(corpus))}
	for i, p := range corpus {
		fs.progs[journal.FileKey(p.ID)] = int32(i)
	}
	return fs
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(name)
	prog := int32(-1)
	for key, i := range c.progs {
		if strings.Contains(base, key) {
			prog = i
		}
	}
	return &countingFile{File: f, fs: c, file: c.tr.fileIndex(base), prog: prog}, nil
}

type countingFile struct {
	journal.File
	fs   *countingFS
	file int32
	prog int32
}

func (f *countingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	f.fs.tr.record(span{name: spanFSWrite, worker: -1, prog: f.prog, file: f.file, traces: int32(n)}, t0, time.Now())
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.syncs.Add(1)
	f.fs.tr.record(span{name: spanFSSync, worker: -1, prog: f.prog, file: f.file}, t0, time.Now())
	return err
}

// countingStore counts the calls and bytes an archive.ObjectStore sees.
type countingStore struct {
	archive.ObjectStore
	puts, putBytes, gets, lists atomic.Int64
}

func (s *countingStore) Put(key string, data []byte) error {
	s.puts.Add(1)
	s.putBytes.Add(int64(len(data)))
	return s.ObjectStore.Put(key, data)
}

func (s *countingStore) Get(key string) ([]byte, error) {
	s.gets.Add(1)
	return s.ObjectStore.Get(key)
}

func (s *countingStore) List(prefix string) ([]string, error) {
	s.lists.Add(1)
	return s.ObjectStore.List(prefix)
}

// timedBackendFor is boot's wrap argument for a traced run.
func timedBackendFor(tr *tracer, corpus []*program) func(*hive.Hive) pod.HiveClient {
	progs := programIndex(corpus)
	return func(h *hive.Hive) pod.HiveClient { return &timedBackend{h: h, tr: tr, progs: progs} }
}

// programIndex maps program IDs to corpus positions.
func programIndex(corpus []*program) map[string]int32 {
	idx := make(map[string]int32, len(corpus))
	for i, p := range corpus {
		idx[p.ID] = int32(i)
	}
	return idx
}

func (c *countingFS) counts() fsCounts {
	if c == nil {
		return fsCounts{}
	}
	return fsCounts{writes: c.writes.Load(), bytes: c.writeBytes.Load(), syncs: c.syncs.Load()}
}

func sessionCount(h *hive.Hive) (live, frozen int) { return h.SessionCount() }

// treeSizes sums nodes and open frontiers over the corpus.
func treeSizes(h *hive.Hive, corpus []*program) (nodes, frontiers int64) {
	for _, p := range corpus {
		if tree, err := h.Tree(p.ID); err == nil {
			nodes += tree.Stats().Nodes
			frontiers += int64(tree.FrontierCount())
		}
	}
	return nodes, frontiers
}

// diskMiB is the size of the node's data directory.
func diskMiB(n *node) float64 {
	b, err := n.store.DiskUsage()
	if err != nil {
		return 0
	}
	return float64(b) / (1 << 20)
}

// stateCycle is one pass over the durable state in fx.dir, each step timed:
// (1) reboot — journal.Open and Hive.Recover into a fresh hive; (2) re-home
// — export every program and import it into a second hive; (3) archive —
// SyncAll into an empty object store; (4) cold standby — rebuild every
// program from that store alone and import it into a third hive. Each of
// the three hives must hold exactly want, and answer a frame set-up had
// acknowledged as a duplicate. The directory is left as it was found.
func (rc *runCtx) stateCycle(fx *fixture, want map[string]programState, st *stateTimes, traced bool) error {
	var fs journal.FS
	if traced {
		fs = newCountingFS(rc.tr, fx.corpus)
	}
	check := func(what string, h *hive.Hive) error {
		got, err := snapshotState(h, fx.corpus)
		if err != nil {
			return err
		}
		if err := sameState(what, want, got); err != nil {
			return err
		}
		if fx.grown == nil {
			return nil
		}
		if err := resubmit(h, fx.grown.dup); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		after, err := snapshotState(h, fx.corpus)
		if err != nil {
			return err
		}
		return sameState(what+" after duplicate", want, after)
	}

	t0 := time.Now()
	h1, store, err := recoverHive(fx.dir, fx.corpus, false, fs)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer store.Close()
	recoverS := time.Since(t0).Seconds()
	if err := check("recovered hive", h1); err != nil {
		return err
	}

	t0 = time.Now()
	h2, exportNS, importNS, err := rehome(h1, fx.corpus)
	if err != nil {
		return fmt.Errorf("re-home: %w", err)
	}
	rehomeS := time.Since(t0).Seconds()
	if err := check("re-homed hive", h2); err != nil {
		return err
	}

	objDir, err := os.MkdirTemp(rc.root, "archive-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(objDir)
	obj, err := archive.NewDirStore(objDir, nil)
	if err != nil {
		return err
	}
	counted := &countingStore{ObjectStore: obj}
	t0 = time.Now()
	if err := archiveSync(store, counted); err != nil {
		return fmt.Errorf("archive sync: %w", err)
	}
	syncS := time.Since(t0).Seconds()
	var resyncS float64
	if traced {
		// A second sync with nothing changed: whatever it costs is waste.
		t0 = time.Now()
		if err := archiveSync(store, obj); err != nil {
			return fmt.Errorf("archive re-sync: %w", err)
		}
		resyncS = time.Since(t0).Seconds()
	}
	stateBytes, err := store.DiskUsage()
	if err != nil {
		return err
	}
	// The dead hive's directory is not consulted from here on.
	if err := store.Close(); err != nil {
		return err
	}

	scratch, err := os.MkdirTemp(rc.root, "standby-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	t0 = time.Now()
	h3, err := coldStandby(counted, scratch, fx.corpus)
	if err != nil {
		return fmt.Errorf("cold standby: %w", err)
	}
	coldS := time.Since(t0).Seconds()
	if err := check("cold-standby hive", h3); err != nil {
		return err
	}
	var materializeS float64
	if traced {
		if materializeS, err = materialize(rc, obj); err != nil {
			return err
		}
	}

	if rc.traced && !traced {
		st.untracedRecover = append(st.untracedRecover, recoverS)
		return nil
	}
	st.recover = append(st.recover, recoverS)
	st.rehome = append(st.rehome, rehomeS)
	st.sync = append(st.sync, syncS)
	st.cold = append(st.cold, coldS)
	if traced {
		np := float64(len(fx.corpus))
		st.exportMS = append(st.exportMS, float64(exportNS)/1e6/np)
		st.importMS = append(st.importMS, float64(importNS)/1e6/np)
		st.resync = append(st.resync, resyncS)
		st.materialize = append(st.materialize, materializeS)
		st.puts += counted.puts.Load()
		st.gets += counted.gets.Load()
		st.lists += counted.lists.Load()
		st.putBytes += counted.putBytes.Load()
		st.stateBytes += stateBytes
		st.cycles++
	}
	return nil
}

// --- replays: single layers fed the workload's own inputs, traced run only ---

// podSample captures what pod_loop's pods ship for program pi: n
// external-only traces of its users' next inputs.
func podSample(fx *fixture, pi, n int) ([]frame, error) {
	p := fx.corpus[pi]
	u := fx.users[pi%len(fx.users)]
	inputs := make([][]int64, n)
	for i := range inputs {
		inputs[i] = u.NextInput(p.NumInputs, fx.domain)
	}
	return captureFrames(p, trace.CaptureExternalOnly, "w0-sample", inputs)
}

// layerReplays are the costs of single layers on the workload's inputs.
type layerReplays struct {
	traces      int // traces each codec and tree replay covered
	frameTraces int // traces per replayed frame

	encodeNS, decodeNS        float64 // per trace
	compressNS, compressRatio float64
	mergeNS, newPathRatio     float64 // into a fresh tree, in sending order
	remergeNS                 float64 // the same paths into a copy of the end tree
	reconstructNS             float64
	reconstructed             int
	externalShare             float64 // share of the sample the hive must reconstruct
	frontiersUS, generateUS   float64
	reads                     int
	encodeTreeMS              float64 // per program
	loadChainMS               float64
	decodeChainMS             float64
	appendUS                  float64
	appends                   int
}

// replayLayers runs after traffic, on the still-open node: each layer's
// public function is called alone on the frames the workers sent (at most
// replayFrames of them per program), a copy of the end tree, the node's own
// snapshot chain, and scratch stores.
func replayLayers(rc *runCtx, fx *fixture, n *node) (*layerReplays, error) {
	const replayFrames = 16
	lr := &layerReplays{}
	perFrame := frameTraces
	if fx.pools == nil {
		perFrame = runsPerCycle // pod_loop ships one small frame per drain
	}
	lr.frameTraces = perFrame

	var encNS, decNS, cmpNS, mergeNS, remergeNS, reconNS int64
	var rawBytes, cmpBytes, merges, newPaths, external int64
	var frontNS, genNS, reads int64
	var encTreeNS, loadNS, chainNS int64
	var enc, cmp []byte
	for pi, p := range fx.corpus {
		fs, err := fx.sample(pi)
		if err != nil {
			return nil, err
		}
		if len(fs) > replayFrames {
			fs = fs[:replayFrames]
		}
		// Reads, codecs and warm merges run on a private copy of the end
		// tree: Generate certifies frontiers infeasible, which must not
		// reach the hive.
		live, err := n.hive.Tree(p.ID)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		encoded := live.Encode()
		encTreeNS += time.Since(t0).Nanoseconds()
		tree, err := exectree.Decode(encoded)
		if err != nil {
			return nil, err
		}
		gen, err := guidance.NewGenerator(p, 0)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 8; i++ {
			t0 = time.Now()
			tree.Frontiers(32)
			t1 := time.Now()
			gen.Generate(tree, 8)
			frontNS += t1.Sub(t0).Nanoseconds()
			genNS += time.Since(t1).Nanoseconds()
			reads++
		}
		fresh := exectree.New(p.ID)
		for _, f := range fs {
			for off := 0; off+perFrame <= len(f); off += perFrame {
				batch := f[off : off+perFrame]
				t0 := time.Now()
				if enc, err = trace.AppendBatch(enc[:0], p.ID, batch); err != nil {
					return nil, err
				}
				t1 := time.Now()
				view, err := trace.DecodeBatch(enc)
				if err != nil {
					return nil, err
				}
				view.Release()
				t2 := time.Now()
				cmp = trace.CompressSlab(cmp[:0], enc)
				t3 := time.Now()
				encNS += t1.Sub(t0).Nanoseconds()
				decNS += t2.Sub(t1).Nanoseconds()
				cmpNS += t3.Sub(t2).Nanoseconds()
				rawBytes += int64(len(enc))
				cmpBytes += int64(len(cmp))
				lr.traces += len(batch)
			}
			// Merge in sending order into a fresh tree; external-only
			// traces are reconstructed first, as the hive must.
			for _, tr := range f {
				path := tr.Branches
				if tr.Mode == trace.CaptureExternalOnly {
					t0 := time.Now()
					if path, err = exectree.Reconstruct(p, tr); err != nil {
						return nil, err
					}
					reconNS += time.Since(t0).Nanoseconds()
					external++
				}
				t0 := time.Now()
				res := fresh.Merge(path, tr.Outcome)
				t1 := time.Now()
				tree.Merge(path, tr.Outcome)
				mergeNS += t1.Sub(t0).Nanoseconds()
				remergeNS += time.Since(t1).Nanoseconds()
				merges++
				if res.NewPath {
					newPaths++
				}
			}
		}

		t0 = time.Now()
		base, deltas, err := n.store.LoadChain(p.ID)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if base != nil {
			patches := make([][]byte, len(deltas))
			for i, d := range deltas {
				patches[i] = d.TreeDelta
			}
			if _, err := exectree.DecodeChain(base.Tree, patches); err != nil {
				return nil, err
			}
		}
		loadNS += t1.Sub(t0).Nanoseconds()
		chainNS += time.Since(t1).Nanoseconds()
	}
	np := float64(len(fx.corpus))
	lr.encodeNS = ratio(float64(encNS), float64(lr.traces))
	lr.decodeNS = ratio(float64(decNS), float64(lr.traces))
	lr.compressNS = ratio(float64(cmpNS), float64(lr.traces))
	lr.compressRatio = ratio(float64(rawBytes), float64(cmpBytes))
	lr.mergeNS = ratio(float64(mergeNS), float64(merges))
	lr.remergeNS = ratio(float64(remergeNS), float64(merges))
	lr.newPathRatio = ratio(float64(newPaths), float64(merges))
	lr.reconstructNS = ratio(float64(reconNS), float64(external))
	lr.reconstructed = int(external)
	lr.externalShare = ratio(float64(external), float64(merges))
	lr.frontiersUS = ratio(float64(frontNS)/1e3, float64(reads))
	lr.generateUS = ratio(float64(genNS)/1e3, float64(reads))
	lr.reads = int(reads)
	lr.encodeTreeMS = float64(encTreeNS) / 1e6 / np
	lr.loadChainMS = float64(loadNS) / 1e6 / np
	lr.decodeChainMS = float64(chainNS) / 1e6 / np

	// Journal append alone: the workload's frame size and flush policy, a
	// scratch store, one program.
	scratch, err := os.MkdirTemp(rc.root, "append-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	store, err := openJournal(scratch, rc.sp.fsync, nil)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	fs, err := fx.sample(0)
	if err != nil {
		return nil, err
	}
	if enc, err = trace.AppendBatch(enc[:0], fx.corpus[0].ID, fs[0][:perFrame]); err != nil {
		return nil, err
	}
	const appends = 256
	t0 := time.Now()
	for i := 0; i < appends; i++ {
		op := &journal.Op{Kind: journal.OpBatchColumnar, Session: "replay", Seq: uint64(i + 1), Raw: enc}
		if err := store.Append(fx.corpus[0].ID, op); err != nil {
			return nil, err
		}
	}
	lr.appendUS = float64(time.Since(t0).Microseconds()) / appends
	lr.appends = appends
	return lr, nil
}

// materialize times archive.Materialize alone on a filled object store: the
// part of cold standby that is not recovery-shaped.
func materialize(rc *runCtx, obj archive.ObjectStore) (float64, error) {
	dir, err := os.MkdirTemp(rc.root, "materialize-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	if _, err := archive.Materialize(obj, nil, dir); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}
