package main

import (
	"fmt"
	"sync"
	"time"
)

// spec is one workload: a traffic mix against a durable hive, and where in
// the run the pass over durable state (recover, re-home, archive, cold
// standby) happens. README.md carries the table these come from.
type spec struct {
	name string
	why  string
	// fsync is the journal flush policy; it is the same on both sides of
	// any comparison because it is part of the workload.
	fsync bool
	// shaped routes the connections through the E15 WAN link.
	shaped bool
	// stateFirst runs the state cycles on the directory set-up built,
	// before any traffic touches it; otherwise they run on the directory
	// the traffic left behind.
	stateFirst bool
	// trafficShare is the share of a round's measured seconds given to
	// traffic; the rest goes to recoveries of the durable state.
	trafficShare float64
	setup        func(rc *runCtx) (*fixture, error)
	crew         func(rc *runCtx, fx *fixture, connect connector, t *tally) ([]worker, error)
}

// connector dials the hive for one worker, negotiates, and books the
// handshake into t.
type connector func(worker int, t *tally) (*conn, error)

// trafficFirstShare leaves a third of every round to recoveries of the state
// its traffic left behind: one recovery takes 6 ms to 0.3 s, and recover_s
// wants samples by the dozen, spread over seconds of the sandbox's drift.
const trafficFirstShare = 2.0 / 3

var specs = []spec{
	{
		name:         "ingest_bulk",
		why:          "two connections streaming 256-trace full-capture frames flat out, fsync off: codec, hive apply, tree merge, journal write",
		trafficShare: trafficFirstShare,
		setup:        setupBulk,
		crew:         crewBulk,
	},
	{
		name:         "pod_loop",
		why:          "real pods, 16-trace external-only frames, fsync on: per-frame wire cost, group commit and reconstruction own the ack",
		fsync:        true,
		trafficShare: trafficFirstShare,
		setup:        setupPods,
		crew:         crewPods,
	},
	{
		name:         "steer_mixed",
		why:          "guidance and fix reads beside paced writes on large pre-grown trees: frontier snapshots, solving and the checkpoint gate",
		trafficShare: trafficFirstShare,
		setup:        setupMixed,
		crew:         crewMixed,
	},
	{
		name:         "wan_drain",
		why:          "one 128-frame drain at a time over RTT 100 ms, loss 0.5 %, 16 MiB/s: framing and bytes on the wire decide",
		shaped:       true,
		trafficShare: trafficFirstShare,
		setup:        setupWAN,
		crew:         crewWAN,
	},
	{
		name:         "recover",
		why:          "batch jobs over a large data dir with a WAL suffix: journal replay, snapshot chain, re-home, archive and cold standby",
		stateFirst:   true,
		trafficShare: 0.4,
		setup:        setupRecover,
		crew:         crewMixed,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// tally is what one worker observed in one phase of a run.
type tally struct {
	ackMS, guidanceMS []float64 // one sample an operation
	// The same latencies averaged over each pass through the corpus (see
	// rounds); the end-to-end medians are taken over these.
	ackRoundMS, guidanceRoundMS []float64
	helloUS                     []float64
	traces                      int64 // traces acked
	frames                      int64 // frames acked
	attempted, failed           int64 // operations
	asked, returned             int64 // guidance cases
	runs                        int64 // pod executions timed in runNS
	runNS                       int64
}

func (t *tally) merge(o *tally) {
	t.ackMS = append(t.ackMS, o.ackMS...)
	t.guidanceMS = append(t.guidanceMS, o.guidanceMS...)
	t.ackRoundMS = append(t.ackRoundMS, o.ackRoundMS...)
	t.guidanceRoundMS = append(t.guidanceRoundMS, o.guidanceRoundMS...)
	t.helloUS = append(t.helloUS, o.helloUS...)
	t.traces += o.traces
	t.frames += o.frames
	t.attempted += o.attempted
	t.failed += o.failed
	t.asked += o.asked
	t.returned += o.returned
	t.runs += o.runs
	t.runNS += o.runNS
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rounds averages a worker's latencies over each pass through the corpus.
// Workers go round-robin over programs whose trees differ in size, so the
// per-operation latencies of a run are a mixture of one narrow cluster per
// program, and the median of such a mixture sits in the gap between the two
// middle clusters: a 2 % shift of the machine's speed moves it by the width
// of the gap. A pass holds one operation of every program, so the median
// over passes moves only as far as the operations do.
type rounds struct {
	size int
	sum  float64
	n    int
}

func (r *rounds) add(sample float64, out *[]float64) {
	r.sum += sample
	if r.n++; r.n >= r.size {
		*out = append(*out, r.sum/float64(r.n))
		r.sum, r.n = 0, 0
	}
}

// typical is the median over passes, or over operations when the phase was
// too short for one whole pass.
func typical(perRound, perOp []float64) (float64, int) {
	if len(perRound) > 0 {
		return median(perRound), len(perRound)
	}
	return median(perOp), len(perOp)
}

// worker is one closed loop: step issues the next operation and returns
// when its reply has arrived.
type worker interface {
	// step runs one iteration into t. An error is an operation that
	// failed or a reply that was wrong; the worker stops.
	step(t *tally) error
	// think is the pause between iterations. Its overshoot only lowers
	// the offered load; no latency is measured from a due time.
	think() time.Duration
	// acked is every trace this worker had acknowledged, over all phases.
	acked() int64
	stop() error
}

// drive runs every worker's loop for d and returns what they saw together
// and how long the slowest took. Workers are joined before it returns, so a
// phase holds whole operations only.
func drive(ws []worker, d time.Duration) (*tally, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(d)
	tallies := make([]*tally, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		tallies[i] = &tally{}
		wg.Add(1)
		go func(i int, w worker) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := w.step(tallies[i]); err != nil {
					tallies[i].failed++
					errs[i] = err
					return
				}
				if th := w.think(); th > 0 {
					time.Sleep(th)
				}
			}
		}(i, w)
	}
	wg.Wait()
	wall := time.Since(start)
	total := &tally{}
	var first error
	for i, t := range tallies {
		total.merge(t)
		if errs[i] != nil && first == nil {
			first = fmt.Errorf("worker %d: %w", i, errs[i])
		}
	}
	return total, wall, first
}

// bulkWriter drains pre-captured traces: each step seals framesPerDrain
// 256-trace frames for one program, submits them and waits for every ack;
// every guidanceEvery-th step it also asks for guidance on that program.
type bulkWriter struct {
	cn             *conn
	fx             *fixture
	pool           [][]frame // per program: the 256-trace slices in order
	framesPerDrain int
	guidanceEvery  int
	pause          time.Duration

	k          int
	drain      []frame // the frames of the drain in flight, reused
	next       []int   // per program: next frame of the pool
	total      int64
	ackRound   rounds
	guideRound rounds
}

func (w *bulkWriter) think() time.Duration { return w.pause }
func (w *bulkWriter) acked() int64         { return w.total }
func (w *bulkWriter) stop() error          { return w.cn.close() }

func (w *bulkWriter) step(t *tally) error {
	pi := w.k % len(w.fx.corpus)
	w.k++
	p := w.fx.corpus[pi]
	frames := w.drain[:0]
	for f := 0; f < w.framesPerDrain; f++ {
		frames = append(frames, w.pool[pi][w.next[pi]%len(w.pool[pi])])
		w.next[pi]++
	}
	w.drain = frames
	t.attempted++
	n, lat, err := w.cn.drain(p.ID, frames)
	if err != nil {
		return err
	}
	t.ackMS = append(t.ackMS, ms(lat))
	w.ackRound.add(ms(lat), &t.ackRoundMS)
	t.traces += int64(n)
	t.frames += int64(len(frames))
	w.total += int64(n)
	if w.guidanceEvery > 0 && w.k%w.guidanceEvery == 0 {
		return askGuidance(w.cn, w.fx, pi, t, &w.guideRound)
	}
	return nil
}

// askGuidance times one Guidance(program, 8) call and checks every case it
// returns by running it.
func askGuidance(cn *conn, fx *fixture, pi int, t *tally, round *rounds) error {
	p := fx.corpus[pi]
	t.attempted++
	t0 := time.Now()
	cases, err := cn.Guidance(p.ID, 8)
	lat := time.Since(t0)
	if err != nil {
		return fmt.Errorf("guidance %s: %w", p.Name, err)
	}
	for _, tc := range cases {
		if err := runGuided(p, tc); err != nil {
			return err
		}
	}
	t.guidanceMS = append(t.guidanceMS, ms(lat))
	round.add(ms(lat), &t.guidanceRoundMS)
	t.asked += 8
	t.returned += int64(len(cases))
	return nil
}

// reader is the developer side: Guidance round-robin over the corpus, every
// fourth call also the full fix history of that program.
type reader struct {
	cn    *conn
	fx    *fixture
	pause time.Duration
	k     int
	round rounds
}

func (r *reader) think() time.Duration { return r.pause }
func (r *reader) acked() int64         { return 0 }
func (r *reader) stop() error          { return r.cn.close() }

func (r *reader) step(t *tally) error {
	pi := r.k % len(r.fx.corpus)
	r.k++
	if err := askGuidance(r.cn, r.fx, pi, t, &r.round); err != nil {
		return err
	}
	if r.k%4 == 0 {
		t.attempted++
		if _, _, err := r.cn.FixesSince(r.fx.corpus[pi].ID, 0); err != nil {
			return fmt.Errorf("fixes %s: %w", r.fx.corpus[pi].Name, err)
		}
	}
	return nil
}

// podWorker is cmd/pod's loop for podsPerWorker pods on one connection:
// each step one pod runs 16 inputs of its user, then flushes and drains;
// every steerEvery-th step it syncs fixes and pulls guidance; every redialEvery steps
// the connection is dropped and re-dialled with fresh pods.
type podWorker struct {
	id      int
	fx      *fixture
	connect connector

	cn         *conn
	pods       []*podUnit
	k          int
	gen        int
	total      int64
	ackRound   rounds
	guideRound rounds
}

const (
	runsPerCycle = 16
	redialEvery  = 256
	// steerEvery is coprime with the pods per worker and the corpus size,
	// so fix syncs and guidance pulls visit every pod and program in turn.
	steerEvery = 9
)

func (w *podWorker) think() time.Duration { return 0 }
func (w *podWorker) acked() int64         { return w.total }

func (w *podWorker) stop() error {
	if w.cn == nil {
		return nil
	}
	return w.cn.close()
}

// redial drops the connection and its pods and starts over: new session,
// hello, fresh pods that sync their fixes from version 0.
func (w *podWorker) redial(t *tally) error {
	if w.cn != nil {
		if err := w.cn.close(); err != nil {
			return err
		}
	}
	cn, err := w.connect(w.id, t)
	if err != nil {
		return err
	}
	w.cn = cn
	w.gen++
	n := len(w.fx.users) / w.fx.workers
	w.pods = w.pods[:0]
	for i := 0; i < n; i++ {
		u := w.fx.users[w.id*n+i]
		p := w.fx.corpus[(w.id*n+i)%len(w.fx.corpus)]
		unit, err := newPodUnit(p, fmt.Sprintf("w%d-g%d-p%d", w.id, w.gen, i), uint64(w.id*n+i+1), u, cn)
		if err != nil {
			return err
		}
		t.attempted++
		if err := unit.syncFixes(); err != nil {
			return err
		}
		w.pods = append(w.pods, unit)
	}
	return nil
}

func (w *podWorker) step(t *tally) error {
	if w.k > 0 && w.k%redialEvery == 0 {
		if err := w.redial(t); err != nil {
			return err
		}
	}
	unit := w.pods[w.k%len(w.pods)]
	w.k++
	t0 := time.Now()
	if err := unit.run(runsPerCycle, w.fx.domain); err != nil {
		return err
	}
	t.runNS += time.Since(t0).Nanoseconds()
	t.runs += runsPerCycle
	t.attempted++
	n, frames, lat, err := unit.drain(w.cn)
	if err != nil {
		return err
	}
	t.ackMS = append(t.ackMS, ms(lat))
	w.ackRound.add(ms(lat), &t.ackRoundMS)
	t.traces += int64(n)
	t.frames += int64(frames)
	w.total += int64(n)
	if w.k%steerEvery == 0 {
		t.attempted += 2
		if err := unit.syncFixes(); err != nil {
			return err
		}
		t0 := time.Now()
		got, err := unit.pullGuidance(4)
		if err != nil {
			return err
		}
		lat := ms(time.Since(t0))
		t.guidanceMS = append(t.guidanceMS, lat)
		w.guideRound.add(lat, &t.guidanceRoundMS)
		t.asked += 4
		t.returned += int64(got)
	}
	return nil
}

// --- the five crews ---

func crewBulk(rc *runCtx, fx *fixture, connect connector, t *tally) ([]worker, error) {
	return bulkCrew(fx, connect, t, fx.workers, 4, rc.sz.bulkGuidance, len(fx.corpus), 0)
}

// crewWAN's drains are few and set by the link, not the program: every
// drain is a sample of its own.
func crewWAN(rc *runCtx, fx *fixture, connect connector, t *tally) ([]worker, error) {
	return bulkCrew(fx, connect, t, 1, rc.sz.wanFrames, 1, 1, 0)
}

// crewMixed is connection A writing paced 4-frame drains and connection B
// reading guidance and fixes.
func crewMixed(rc *runCtx, fx *fixture, connect connector, t *tally) ([]worker, error) {
	ws, err := bulkCrew(fx, connect, t, 1, 4, 0, len(fx.corpus), 5*time.Millisecond)
	if err != nil {
		return nil, err
	}
	cn, err := connect(1, t)
	if err != nil {
		stopAll(ws)
		return nil, err
	}
	return append(ws, &reader{cn: cn, fx: fx, pause: time.Millisecond, round: rounds{size: len(fx.corpus)}}), nil
}

// stopAll closes every worker's connection and reports the first failure.
func stopAll(ws []worker) error {
	var first error
	for _, w := range ws {
		if err := w.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func bulkCrew(fx *fixture, connect connector, t *tally, writers, framesPerDrain, guidanceEvery, round int, pause time.Duration) ([]worker, error) {
	var ws []worker
	for w := 0; w < writers; w++ {
		cn, err := connect(w, t)
		if err != nil {
			stopAll(ws)
			return nil, err
		}
		ws = append(ws, &bulkWriter{
			cn: cn, fx: fx, pool: fx.pools[w], framesPerDrain: framesPerDrain,
			guidanceEvery: guidanceEvery, pause: pause,
			k: w, next: make([]int, len(fx.corpus)),
			ackRound: rounds{size: round}, guideRound: rounds{size: round},
		})
	}
	return ws, nil
}

// crewPods dials each worker's first connection and builds its first pods;
// later generations are re-dialled inside the loop.
func crewPods(rc *runCtx, fx *fixture, connect connector, t *tally) ([]worker, error) {
	var ws []worker
	for w := 0; w < fx.workers; w++ {
		pw := &podWorker{id: w, fx: fx, connect: connect,
			ackRound: rounds{size: len(fx.corpus)}, guideRound: rounds{size: len(fx.corpus)}}
		ws = append(ws, pw)
		if err := pw.redial(t); err != nil {
			stopAll(ws)
			return nil, err
		}
	}
	return ws, nil
}
