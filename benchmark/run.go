package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// sizes scale the fixtures. fullSizes is what the benchmark measures;
// smokeSizes lets the tests run every workload in a fraction of a second.
type sizes struct {
	bulkPool      int           // ingest_bulk: traces captured per program
	bulkGuidance  int           // ingest_bulk: guidance is asked every this many drains; coprime with the corpus size, so every program is asked in turn
	podsPerWorker int           // pod_loop
	grow          int           // steer_mixed: traces pre-grown per program
	wanFrames     int           // wan_drain: frames per drain
	recoverSlice  int           // recover: traces per program and pass
	recoverRepeat int           // recover: times each pass ingests its slice
	stateCycles   int           // recoveries timed in a round, at least; full state cycles of a traced run
	rounds        int           // times an untraced run goes from set-up to recoveries
	slice         time.Duration // an untraced run's traffic is measured in slices this long
	setupBudget   time.Duration // a round repeats a set-up cheaper than this until it is spent (64 times at most)
}

var (
	fullSizes  = sizes{bulkPool: 4096, bulkGuidance: 33, podsPerWorker: 32, grow: 32768, wanFrames: 128, recoverSlice: 2048, recoverRepeat: 8, stateCycles: 5, rounds: 3, slice: time.Second / 2, setupBudget: time.Second / 3}
	smokeSizes = sizes{bulkPool: 512, bulkGuidance: 3, podsPerWorker: 4, grow: 1024, wanFrames: 4, recoverSlice: 256, recoverRepeat: 1, stateCycles: 1, rounds: 2, slice: time.Second / 10}
)

// runCtx is one run of one workload.
type runCtx struct {
	sp      spec
	seed    uint64
	seconds float64
	traced  bool
	sz      sizes
	root    string    // every file the run writes lives under it
	spans   string    // where to dump spans, traced only
	log     io.Writer // progress, not results
	tr      *tracer
	fs      *countingFS // the node's file system in a traced run
}

// result is what one run of one workload reports.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
	Error     string                 `json:"error,omitempty"`
}

// fixture is what set-up hands the run: the corpus, a data directory, and
// the inputs the workers will send.
type fixture struct {
	corpus  []*program
	dir     string
	workers int
	pools   [][][]frame // [worker][program] → frames in sending order
	users   []*user     // pod_loop
	domain  int64
	grown   *grown // state set-up put in dir, nil for an empty directory
}

func (fx *fixture) discard() { _ = os.RemoveAll(fx.dir) }

// sample is the frames of program pi the per-layer replays feed to single
// layers: the ones the workers send, or for pod_loop a capture of what its
// pods would send.
func (fx *fixture) sample(pi int) ([]frame, error) {
	if fx.pools != nil {
		return fx.pools[0][pi], nil
	}
	return podSample(fx, pi, 2048)
}

// --- set-ups ---

// setupBulk gives each of two connections its own pool. One closed loop is
// serial work that two cores only slow down (it runs a fifth faster pinned to
// one), so its speed is the scheduler's placement of two goroutines; two
// loops keep both cores busy and spread throughput half as far.
func setupBulk(rc *runCtx) (*fixture, error) {
	return bulkFixture(rc, 8, 2, rc.sz.bulkPool, 1.1)
}

// setupWAN is two programs of the bulk shape with enough varied traces for
// one whole drain each.
func setupWAN(rc *runCtx) (*fixture, error) {
	return bulkFixture(rc, 2, 1, rc.sz.wanFrames*frameTraces, 1.02)
}

func bulkFixture(rc *runCtx, nprogs, workers, pool int, zipf float64) (*fixture, error) {
	corpus, err := programs(nprogs, bulkProgram)
	if err != nil {
		return nil, err
	}
	fx := &fixture{corpus: corpus, workers: workers}
	r := newRNG(rc.seed)
	for w := 0; w < workers; w++ {
		var perProg [][]frame
		for _, p := range corpus {
			fs, err := captureFrames(p, captureFull, fmt.Sprintf("w%d-bulk", w), zipfInputs(r.Split(), p, pool, zipf))
			if err != nil {
				return nil, err
			}
			perProg = append(perProg, fs)
		}
		fx.pools = append(fx.pools, perProg)
	}
	fx.dir, err = os.MkdirTemp(rc.root, "data-")
	return fx, err
}

func setupPods(rc *runCtx) (*fixture, error) {
	corpus, err := programs(8, deployedProgram)
	if err != nil {
		return nil, err
	}
	fx := &fixture{corpus: corpus, workers: 2}
	if fx.users, fx.domain, err = users(rc.seed, fx.workers*rc.sz.podsPerWorker); err != nil {
		return nil, err
	}
	fx.dir, err = os.MkdirTemp(rc.root, "data-")
	return fx, err
}

// setupMixed pre-grows four large trees, half from full-capture and half
// from external-only traces, checkpoints them and closes the directory; the
// writer then re-sends the same mix.
func setupMixed(rc *runCtx) (*fixture, error) {
	corpus, err := programs(4, mixedProgram)
	if err != nil {
		return nil, err
	}
	fx := &fixture{corpus: corpus, workers: 2}
	r := newRNG(rc.seed)
	slices := make([][][]frame, len(corpus))
	pool := make([][]frame, len(corpus))
	for pi, p := range corpus {
		fs, err := captureMixedFrames(p, "w0-mix", zipfInputs(r.Split(), p, rc.sz.grow, 1.02))
		if err != nil {
			return nil, err
		}
		slices[pi] = [][]frame{fs}
		pool[pi] = fs
	}
	fx.pools = [][][]frame{pool}
	if fx.dir, err = os.MkdirTemp(rc.root, "data-"); err != nil {
		return nil, err
	}
	fx.grown, err = grow(fx.dir, corpus, slices, 1, 0)
	return fx, err
}

// setupRecover builds the data directory a killed hive leaves: per program
// seven passes of fresh paths, a checkpoint after each of the first six
// (a base and five delta segments), the seventh left in the WAL.
func setupRecover(rc *runCtx) (*fixture, error) {
	corpus, err := programs(8, recoverProgram)
	if err != nil {
		return nil, err
	}
	const passes = 7
	fx := &fixture{corpus: corpus, workers: 2}
	r := newRNG(rc.seed)
	slices := make([][][]frame, len(corpus))
	pool := make([][]frame, len(corpus))
	for pi, p := range corpus {
		fs, err := captureFrames(p, captureFull, "w0-rec", zipfInputs(r.Split(), p, passes*rc.sz.recoverSlice, 1.02))
		if err != nil {
			return nil, err
		}
		per := len(fs) / passes
		for j := 0; j < passes; j++ {
			slices[pi] = append(slices[pi], fs[j*per:(j+1)*per])
		}
		pool[pi] = fs
	}
	fx.pools = [][][]frame{pool}
	if fx.dir, err = os.MkdirTemp(rc.root, "data-"); err != nil {
		return nil, err
	}
	fx.grown, err = grow(fx.dir, corpus, slices, rc.sz.recoverRepeat, 1)
	return fx, err
}

// --- one run ---

// window measures the process over one phase.
type window struct {
	cpu   time.Duration
	alloc uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func openWindow() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{cpu: processCPU(), alloc: ms.TotalAlloc}
}

func (w window) close() (cpu time.Duration, alloc uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processCPU() - w.cpu, ms.TotalAlloc - w.alloc
}

// checkpointer calls Hive.Checkpoint every 2 s, as cmd/hive's background
// snapshotter does (there every 30 s). It is part of every workload: without
// it the WAL of ingest_bulk grows by ~100 MB/s. Each call is timed, and the
// directory's size is sampled just before it, when the WAL is longest.
//
// It ticks a fixed number of times, the 2 s periods the planned traffic
// holds: a phase ends with the operation in flight at its deadline (0.9 s on
// wan_drain), and a tick landing in that overshoot on some runs only would
// give the directory one delta segment more, and recover_s a tenth more.
type checkpointer struct {
	n       *node
	stopc   chan struct{}
	done    chan struct{}
	ms      []float64
	peakMiB float64
	err     error
}

const checkpointEvery = 2 * time.Second

func startCheckpointer(n *node, planned time.Duration) *checkpointer {
	c := &checkpointer{n: n, stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		tick := time.NewTicker(checkpointEvery)
		defer tick.Stop()
		for left := int(planned / checkpointEvery); left > 0; left-- {
			select {
			case <-c.stopc:
				return
			case <-tick.C:
				c.checkpoint()
			}
		}
	}()
	return c
}

func (c *checkpointer) checkpoint() {
	if mib := diskMiB(c.n); mib > c.peakMiB {
		c.peakMiB = mib
	}
	t0 := time.Now()
	if err := c.n.checkpoint(); err != nil && c.err == nil {
		c.err = err
	}
	c.ms = append(c.ms, ms(time.Since(t0)))
}

// stop ends the ticker and takes the closing checkpoint, so the directory
// recovers without replay and holds exactly what was acknowledged.
func (c *checkpointer) stop() error {
	close(c.stopc)
	<-c.done
	c.checkpoint()
	return c.err
}

// maxDiskMiB is the most a run may hold on disk at any sampled instant.
const maxDiskMiB = 1024

// runWorkload runs one workload once and reports its metrics: the
// end-to-end ones for an untraced run, the per-layer ones for a traced run.
func runWorkload(rc *runCtx) (res *result) {
	decl := endToEnd
	if rc.traced {
		decl = perLayer
	}
	m := newMeasurements(decl)
	res = &result{}
	ops := &tally{}
	err := rc.run(m, ops)
	m.fill()
	res.Metrics = m.values
	res.Attempted, res.Failed = ops.attempted, ops.failed
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}
	if err != nil {
		res.Error = err.Error()
		if res.Failed == 0 {
			res.Failed = 1
		}
	}
	res.Correct = err == nil && res.Failed == 0
	return res
}

func (rc *runCtx) logf(format string, args ...any) {
	if rc.log != nil {
		fmt.Fprintf(rc.log, "# "+rc.sp.name+": "+format+"\n", args...)
	}
}

// stage is a served hive with a connected crew: everything traffic needs.
type stage struct {
	n       *node
	target  string // address the crew dials: the node, or the shaped link in front of it
	closers []func() error
	ws      []worker
}

// bringUp boots the hive on the fixture's directory, puts the shaped link in
// front of it if the workload has one, and connects the crew.
func (rc *runCtx) bringUp(fx *fixture, ops *tally) (*stage, error) {
	var wrap func(h *hiveT) backendT
	var fs fsT
	if rc.traced {
		rc.fs = newCountingFS(rc.tr, fx.corpus)
		fs, wrap = rc.fs, timedBackendFor(rc.tr, fx.corpus)
	}
	n, err := boot(fx.dir, fx.corpus, rc.sp.fsync, fs, wrap)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	sg := &stage{n: n, target: n.addr}
	if rc.sp.shaped {
		shaped, closeLink, err := shape(n.addr)
		if err != nil {
			sg.down()
			return nil, err
		}
		sg.closers = append(sg.closers, closeLink)
		sg.target = shaped
	}
	if sg.ws, err = rc.sp.crew(rc, fx, sg.plain, ops); err != nil {
		sg.down()
		return nil, fmt.Errorf("connect: %w", err)
	}
	return sg, nil
}

// plain connects a worker straight to the stage's address.
func (sg *stage) plain(worker int, t *tally) (*conn, error) {
	c := dial(sg.target)
	return greet(&conn{client: c, raw: c}, t)
}

// greet negotiates on a fresh connection and books the handshake.
func greet(cn *conn, t *tally) (*conn, error) {
	t.attempted++
	hello, err := cn.hello()
	if err != nil {
		t.failed++
		_ = cn.close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	t.helloUS = append(t.helloUS, float64(hello.Nanoseconds())/1e3)
	return cn, nil
}

// down closes the crew, the link and the node, killing the hive: no
// checkpoint is taken.
func (sg *stage) down() error {
	err := stopAll(sg.ws)
	sg.ws = nil
	for i := len(sg.closers) - 1; i >= 0; i-- {
		if cerr := sg.closers[i](); err == nil {
			err = cerr
		}
	}
	sg.closers = nil
	if cerr := sg.n.close(); err == nil {
		err = cerr
	}
	return err
}

// run is the body of runWorkload. ops accumulates attempted and failed
// operations over every phase.
//
// An untraced run goes through the workload sz.rounds times, each round with
// its share of the measured seconds: set-up, traffic in slices, kill,
// recoveries. Every metric so has samples from the whole length of the run and
// not from one stretch of it, and reports the quartile of them on the quiet
// side (see quiet). A traced run is one round and one window.
func (rc *runCtx) run(m *measurements, ops *tally) error {
	rounds := rc.sz.rounds
	if rc.traced {
		rounds = 1
		rc.tr = newTracer(1 << 20)
	}
	sm := &samples{}
	st := &stateTimes{}
	var last *roundResult
	for r := 0; r < rounds; r++ {
		var err error
		if last, err = rc.round(r, rc.seconds/float64(rounds), sm, st, ops); err != nil {
			return err
		}
	}
	if !rc.traced {
		sm.recover = st.recover
		sm.emit(m)
		return nil
	}
	rc.layerMetrics(m, last.fx, last.tm, st, last.lr, last.lc)
	if rc.spans != "" {
		if err := rc.tr.write(rc.spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return rc.checkCover()
}

// samples are what the rounds of an untraced run collect for the end-to-end
// metrics: one value a set-up, a slice of traffic, a recovery.
type samples struct {
	setups, recover            []float64
	tracesPerS, ackMS, guideMS []float64
	cpuUS                      []float64
	// Bytes allocated are a count, which the host does not touch but a
	// checkpoint in one slice of four does: totals, no quartile.
	alloc  uint64
	traces int64
}

// quiet is the quartile of xs on the better side: the first for a metric
// that is better lower, the third for one better higher. The sandbox shares
// its host, and what the neighbours do to a sample only ever makes it worse,
// for a second or for a minute: the median of a run moves with the share of
// the run they took (recover_s by a quarter between runs of the same code),
// the quiet quartile stays put as long as a quarter of the run was left alone.
// A change to the program moves every sample, and so moves both alike. On ten
// runs of each workload on a quiet host the quartile spread least (4.0 % on
// average over the timed metrics), the decile most (5.5 %), the median and the
// mean between (5.2 %, 5.1 %).
func quiet(xs []float64, better string) float64 {
	if better == "higher" {
		return percentile(sortedCopy(xs), 75)
	}
	return percentile(sortedCopy(xs), 25)
}

func (sm *samples) emit(m *measurements) {
	by := map[string][]float64{
		"setup_s":          sm.setups,
		"traces_per_s":     sm.tracesPerS,
		"ack_p50_ms":       sm.ackMS,
		"guidance_p50_ms":  sm.guideMS,
		"cpu_us_per_trace": sm.cpuUS,
		"recover_s":        sm.recover,
	}
	for _, d := range endToEnd {
		if xs, ok := by[d.Name]; ok {
			m.set(d.Name, quiet(xs, d.Better), len(xs))
		}
	}
	m.set("alloc_b_per_trace", ratio(float64(sm.alloc), float64(sm.traces)), len(sm.cpuUS))
}

// roundResult is what a traced run's single round leaves for layerMetrics.
type roundResult struct {
	fx *fixture // its directory is gone
	tm *trafficMeasure
	lr *layerReplays
	lc layerCounts
}

// round goes through the workload once in the given number of measured
// seconds.
func (rc *runCtx) round(r int, seconds float64, sm *samples, st *stateTimes, ops *tally) (*roundResult, error) {
	sp := rc.sp
	traffic := time.Duration(seconds * sp.trafficShare * float64(time.Second))
	stateBudget := time.Duration(seconds*float64(time.Second)) - traffic
	warmup := time.Second / 2
	if traffic < 4*warmup {
		warmup = traffic / 4
	}

	// A cheap set-up repeats; the last product is the one the round uses.
	var (
		fx    *fixture
		sg    *stage
		spent time.Duration
	)
	for n := 0; n == 0 || (spent < rc.sz.setupBudget && n < 64); n++ {
		if sg != nil {
			if err := sg.down(); err != nil {
				return nil, err
			}
		}
		if fx != nil {
			fx.discard()
		}
		t0 := time.Now()
		var err error
		if fx, err = sp.setup(rc); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if !sp.stateFirst {
			if sg, err = rc.bringUp(fx, ops); err != nil {
				fx.discard()
				return nil, err
			}
		}
		d := time.Since(t0)
		spent += d
		sm.setups = append(sm.setups, d.Seconds())
	}
	defer fx.discard()

	var base int64
	var want map[string]programState
	if fx.grown != nil {
		base, want = fx.grown.traces, fx.grown.want
	}
	if sp.stateFirst {
		if err := rc.cycleState(fx, want, st, stateBudget, r == 0, ops); err != nil {
			return nil, err
		}
		var err error
		if sg, err = rc.bringUp(fx, ops); err != nil {
			return nil, err
		}
	}

	tm, err := rc.traffic(fx, sg, warmup, traffic, sm, ops)
	node := sg.n
	if err == nil {
		// Exactly-once: the hive ingested what set-up grew plus every
		// trace a client saw acknowledged (guided runs are among them).
		var ingested int64
		if ingested, err = totalIngested(node.hive, fx.corpus); err == nil && ingested != base+tm.ackedEver {
			err = fmt.Errorf("exactly-once: hive ingested %d traces, clients saw %d acknowledged on top of %d from set-up", ingested, tm.ackedEver, base)
		}
	}
	if err == nil && tm.peakMiB > maxDiskMiB {
		err = fmt.Errorf("data directory reached %.0f MiB, limit %d", tm.peakMiB, maxDiskMiB)
	}
	if err == nil {
		want, err = snapshotState(node.hive, fx.corpus)
	}
	res := &roundResult{fx: fx, tm: tm}
	if err == nil && rc.traced {
		res.lc.live, res.lc.frozen = sessionCount(node.hive)
		res.lc.nodes, res.lc.frontiers = treeSizes(node.hive, fx.corpus)
		res.lr, err = replayLayers(rc, fx, node)
	}
	if derr := sg.down(); err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}

	// The directory now holds a closing checkpoint. A workload that has
	// not cycled over state yet does so here, on what its traffic left
	// behind; one that has, recovers once more and compares.
	if !sp.stateFirst {
		err = rc.cycleState(fx, want, st, stateBudget, r == 0, ops)
	} else {
		_, err = recoverOnce(fx, want)
	}
	return res, err
}

// trafficMeasure is what the traffic phases of a run produced.
type trafficMeasure struct {
	win       *tally        // the measured window (traced run: the traced window)
	wall      time.Duration // its length
	ackedEver int64         // traces acknowledged over every phase
	ckptMS    []float64
	peakMiB   float64

	// Traced run only.
	refTracesPerS float64  // the untraced reference window
	fs            fsCounts // what the journal's file system saw in the traced window
	relayBytes    int64
	timed         []*timedClient
	proc          procSample
}

// slice books one slice of traffic: its rate and its costs a trace, and the
// median over its passes of each latency. A slice that acknowledged nothing,
// or asked no guidance, has no sample of that kind.
func (sm *samples) slice(t *tally, wall, cpu time.Duration, alloc uint64) {
	if t.traces > 0 {
		sm.tracesPerS = append(sm.tracesPerS, float64(t.traces)/wall.Seconds())
		sm.cpuUS = append(sm.cpuUS, float64(cpu.Microseconds())/float64(t.traces))
	}
	sm.alloc += alloc
	sm.traces += t.traces
	if v, n := typical(t.ackRoundMS, t.ackMS); n > 0 {
		sm.ackMS = append(sm.ackMS, v)
	}
	if v, n := typical(t.guidanceRoundMS, t.guidanceMS); n > 0 {
		sm.guideMS = append(sm.guideMS, v)
	}
}

// traffic runs warm-up and the measured window on the stage's crew, with the
// checkpoint ticker going, and ends with the closing checkpoint. An untraced
// run measures the window in slices of sz.slice and books each into sm. A traced
// run measures a short untraced reference window first, then brings up a
// second crew behind the seams (timedClient over a byte-counting relay) and
// measures that; the difference is the tracing overhead.
func (rc *runCtx) traffic(fx *fixture, sg *stage, warmup, length time.Duration, sm *samples, ops *tally) (*trafficMeasure, error) {
	tm := &trafficMeasure{}
	ckpt := startCheckpointer(sg.n, warmup+length)
	phase := func(d time.Duration) (*tally, time.Duration, error) {
		t, wall, err := drive(sg.ws, d)
		ops.attempted += t.attempted
		ops.failed += t.failed
		return t, wall, err
	}
	// retire closes the crew and books what it had acknowledged.
	retire := func() error {
		for _, w := range sg.ws {
			tm.ackedEver += w.acked()
		}
		err := stopAll(sg.ws)
		sg.ws = nil
		return err
	}
	err := func() error {
		if _, _, err := phase(warmup); err != nil {
			return err
		}
		if !rc.traced {
			// Slice by slice; a slice holds whole operations, so on
			// wan_drain it is as long as a drain.
			tm.win = &tally{}
			for end := time.Now().Add(length); time.Now().Before(end); {
				w := openWindow()
				t, wall, err := phase(min(time.Until(end), rc.sz.slice))
				if err != nil {
					return err
				}
				cpu, alloc := w.close()
				sm.slice(t, wall, cpu, alloc)
				tm.win.merge(t)
				tm.wall += wall
			}
			return nil
		}
		ref, refWall, err := phase(length / 4)
		if err != nil {
			return err
		}
		tm.refTracesPerS = ratio(float64(ref.traces), refWall.Seconds())
		if err := retire(); err != nil {
			return err
		}

		rl, err := startRelay(sg.target)
		if err != nil {
			return err
		}
		sg.closers = append(sg.closers, rl.close)
		progs := programIndex(fx.corpus)
		var mu sync.Mutex // pod_loop's workers re-dial concurrently
		traced := func(worker int, t *tally) (*conn, error) {
			c := dial(rl.addr)
			tc := &timedClient{c: c, tr: rc.tr, worker: int32(worker), progs: progs}
			mu.Lock()
			tm.timed = append(tm.timed, tc)
			mu.Unlock()
			return greet(&conn{client: tc, raw: c, timed: tc}, t)
		}
		dialled := &tally{} // the traced crew's first handshakes count as the window's
		sg.ws, err = rc.sp.crew(rc, fx, traced, dialled)
		ops.attempted += dialled.attempted
		ops.failed += dialled.failed
		if err != nil {
			return err
		}
		if _, _, err := phase(warmup / 2); err != nil {
			return err
		}
		rl.bytes.Store(0)
		fsBefore := rc.fs.counts()
		sampler := startProcSampler()
		rc.tr.on.Store(true)
		tm.win, tm.wall, err = phase(length - length/4)
		rc.tr.on.Store(false)
		tm.win.helloUS = append(tm.win.helloUS, dialled.helloUS...)
		tm.proc = sampler.stop()
		tm.fs = rc.fs.counts().minus(fsBefore)
		tm.relayBytes = rl.bytes.Load()
		return err
	}()
	if rerr := retire(); err == nil {
		err = rerr
	}
	if cerr := ckpt.stop(); err == nil && cerr != nil {
		err = fmt.Errorf("checkpoint: %w", cerr)
	}
	tm.ckptMS, tm.peakMiB = ckpt.ms, ckpt.peakMiB
	if err == nil && tm.win.traces == 0 {
		err = errors.New("no trace was acknowledged in the measured window")
	}
	if err == nil && len(tm.win.guidanceMS) == 0 {
		err = errors.New("no guidance was served in the measured window")
	}
	return tm, err
}

// stateTimes are the step times of the state cycles, in seconds.
type stateTimes struct {
	recover, rehome, sync, cold []float64

	// Traced cycles only.
	exportMS, importMS  []float64 // per program
	resync, materialize []float64
	puts, gets, lists   int64
	putBytes            int64
	stateBytes          int64
	cycles              int64
	untracedRecover     []float64
}

// cycleState passes over the durable state in fx.dir. A full cycle —
// recover, re-home, archive sync, cold standby, each rebuilt hive compared
// with want — runs in a run's first round for correctness; a traced run adds
// sz.stateCycles more with the seams in, which time the three later steps. An
// untraced round then repeats the first step alone, which is all recover_s
// needs, until it has sz.stateCycles samples and budget is spent: one recovery
// takes between 10 ms and 0.4 s and jitters by a fifth, so it wants many.
func (rc *runCtx) cycleState(fx *fixture, want map[string]programState, st *stateTimes, budget time.Duration, first bool, ops *tally) error {
	deadline := time.Now().Add(budget)
	before, err := dirBytes(fx.dir)
	if err != nil {
		return err
	}
	full := 0
	if first {
		full = 1
	}
	if rc.traced {
		full += rc.sz.stateCycles
	}
	// Collect before, not during: the heap still holds the traffic phase's
	// garbage, and a collection landing inside one of the millisecond-sized
	// steps would be most of its time.
	runtime.GC()
	for i := 0; i < full; i++ {
		if i > 0 {
			runtime.GC()
		}
		ops.attempted += 4
		if err := rc.stateCycle(fx, want, st, rc.traced && i > 0); err != nil {
			ops.failed++
			return fmt.Errorf("state cycle %d: %w", i, err)
		}
	}
	for n := 0; !rc.traced && (n < rc.sz.stateCycles || time.Now().Before(deadline)); n++ {
		ops.attempted++
		s, err := recoverOnce(fx, want)
		if err != nil {
			ops.failed++
			return err
		}
		st.recover = append(st.recover, s)
	}
	after, err := dirBytes(fx.dir)
	if err != nil {
		return err
	}
	if after != before {
		return fmt.Errorf("state cycles changed the data directory: %d bytes before, %d after", before, after)
	}
	return nil
}

// dirBytes sums the sizes of the files directly in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// tmpRoot creates the directory every file of a run lives in.
func tmpRoot(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(parent)
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(abs, "run-")
}
