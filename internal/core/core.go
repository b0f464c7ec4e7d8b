// Package core orchestrates whole-platform simulations: a population of
// users running programs under pods, a telemetry backend (SoftBorg hive,
// WER-style crash bucketing, CBI-style predicate sampling, or nothing), and
// a day-granularity loop that measures how residual failure rate, coverage,
// and fix counts evolve — the engine behind experiments E2, E5, E6, and E7.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/baseline/cbi"
	"repro/internal/baseline/wer"
	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/hive"
	"repro/internal/pod"
	"repro/internal/population"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/trace"
)

// Mode selects the telemetry backend.
type Mode uint8

// Simulation modes.
const (
	// ModeNone runs programs with no telemetry at all: the status quo for
	// most software.
	ModeNone Mode = iota + 1
	// ModeWER reports failures only, centrally bucketed; no fixes ship.
	ModeWER
	// ModeCBI samples predicates fleet-wide and ranks them; no fixes ship.
	ModeCBI
	// ModeSoftBorg closes the loop: full recycling, fixes, guidance.
	ModeSoftBorg
)

var modeNames = map[Mode]string{
	ModeNone: "none", ModeWER: "wer", ModeCBI: "cbi", ModeSoftBorg: "softborg",
}

// String returns the mode label.
func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ProgramUnderTest couples a program with its planted-bug ground truth.
type ProgramUnderTest struct {
	Prog *prog.Program
	Bugs []proggen.Bug
}

// Config parameterizes a simulation.
type Config struct {
	// Seed drives everything; same config, same run.
	Seed uint64
	// Programs is the corpus; users are assigned round-robin.
	Programs []ProgramUnderTest
	// Population shapes the fleet.
	Population population.Config
	// Days is the simulated horizon.
	Days int
	// Mode selects the backend.
	Mode Mode
	// GuidancePerDay is the number of steered runs per program per day
	// (SoftBorg only; 0 disables steering).
	GuidancePerDay int
	// Capture and Privacy configure the pods.
	Capture trace.CaptureMode
	// SampleRate applies to CaptureSampled.
	SampleRate float64
	Privacy    trace.PrivacyLevel
	// MaxSteps is the per-run fuel limit (hang detection latency).
	MaxSteps int64
	// Workers bounds the pool simulating pods each day; 0 means GOMAXPROCS,
	// 1 is the sequential baseline. Each pod (and its user's input stream)
	// is owned by exactly one worker per day and trace uploads are buffered
	// until the day barrier, then ingested in pod order — so results are
	// bit-for-bit identical across worker counts for a fixed Seed.
	Workers int
}

// DayMetrics is the per-day measurement row.
type DayMetrics struct {
	Day int
	// Runs and Failures are fleet totals for the day.
	Runs     int64
	Failures int64
	// FailureRate is Failures/Runs.
	FailureRate float64
	// FixesCumulative counts fixes distributed so far (SoftBorg).
	FixesCumulative int
	// DistinctFailures counts failure signatures seen so far (any backend
	// that sees failures).
	DistinctFailures int
	// EdgeCoverage is the mean branch-direction coverage across programs
	// (SoftBorg; 0 otherwise — the other backends build no tree).
	EdgeCoverage float64
	// Averted counts guard-averted failures so far (SoftBorg).
	Averted int64
}

// Simulation is a configured, runnable fleet.
type Simulation struct {
	cfg   Config
	pop   *population.Population
	hive  *hive.Hive
	wer   *wer.Collector
	cbi   *cbi.Aggregator
	pods  []*pod.Pod
	progs []ProgramUnderTest
	// userProg maps user index -> program index.
	userProg []int
	// podsByProg lists pod indices per program, in pod order — the drain
	// order each program's drainer preserves.
	podsByProg [][]int
	// buffered holds each pod's deferred-upload client (nil in ModeNone);
	// draining them in pod order at the day barrier keeps hive ingestion
	// order independent of worker scheduling.
	buffered []*pod.BufferedClient
	// shardedDrain enables one drainer goroutine per program instead of a
	// single fleet-wide coordinator. Sound only when the backend's state is
	// per-program (the hive), so cross-program ingestion order is
	// unobservable; WER/CBI aggregate globally and keep the fleet-order
	// coordinator.
	shardedDrain bool
}

// werClient adapts the WER collector to pod.HiveClient (upload-only).
type werClient struct{ c *wer.Collector }

var _ pod.HiveClient = werClient{}

func (w werClient) SubmitTraces(traces []*trace.Trace) error {
	for _, tr := range traces {
		w.c.Ingest(tr)
	}
	return nil
}
func (w werClient) FixesSince(string, int) ([]fix.Fix, int, error) { return nil, 0, nil }
func (w werClient) Guidance(string, int) ([]guidance.TestCase, error) {
	return nil, nil
}

// cbiClient adapts the CBI aggregator to pod.HiveClient (upload-only).
type cbiClient struct{ a *cbi.Aggregator }

var _ pod.HiveClient = cbiClient{}

func (c cbiClient) SubmitTraces(traces []*trace.Trace) error {
	for _, tr := range traces {
		c.a.Ingest(tr)
	}
	return nil
}
func (c cbiClient) FixesSince(string, int) ([]fix.Fix, int, error) { return nil, 0, nil }
func (c cbiClient) Guidance(string, int) ([]guidance.TestCase, error) {
	return nil, nil
}

// NewSimulation wires a fleet per cfg.
func NewSimulation(cfg Config) (*Simulation, error) {
	if len(cfg.Programs) == 0 {
		return nil, fmt.Errorf("core: no programs")
	}
	if cfg.Days <= 0 {
		cfg.Days = 1
	}
	if cfg.Capture == 0 {
		cfg.Capture = trace.CaptureExternalOnly
		if cfg.Mode == ModeCBI {
			// CBI's defining trait is sparse, fleet-wide predicate sampling.
			cfg.Capture = trace.CaptureSampled
			if cfg.SampleRate == 0 {
				cfg.SampleRate = 0.1
			}
		}
	}
	if cfg.Privacy == 0 {
		cfg.Privacy = trace.PrivacyHashed
	}
	cfg.Population.Seed = cfg.Seed

	pop, err := population.New(cfg.Population)
	if err != nil {
		return nil, err
	}
	s := &Simulation{cfg: cfg, pop: pop, progs: cfg.Programs}

	var client pod.HiveClient
	switch cfg.Mode {
	case ModeSoftBorg:
		s.hive = hive.New("fleet")
		for _, put := range cfg.Programs {
			if err := s.hive.RegisterProgram(put.Prog); err != nil {
				return nil, err
			}
		}
		client = s.hive
	case ModeWER:
		s.wer = wer.NewCollector()
		client = werClient{c: s.wer}
	case ModeCBI:
		s.cbi = cbi.NewAggregator()
		client = cbiClient{a: s.cbi}
	case ModeNone:
		client = nil
	default:
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}

	s.shardedDrain = cfg.Mode == ModeSoftBorg

	users := pop.Users()
	s.pods = make([]*pod.Pod, len(users))
	s.userProg = make([]int, len(users))
	s.podsByProg = make([][]int, len(cfg.Programs))
	s.buffered = make([]*pod.BufferedClient, len(users))
	for i, u := range users {
		pi := i % len(cfg.Programs)
		s.userProg[i] = pi
		s.podsByProg[pi] = append(s.podsByProg[pi], i)
		podClient := client
		if podClient != nil {
			// Each pod runs exactly one program, so its buffer is bound to
			// it: drains take the backend's per-program fast path.
			s.buffered[i] = pod.NewBufferedFor(podClient, cfg.Programs[pi].Prog.ID)
			podClient = s.buffered[i]
		}
		pd, err := pod.New(pod.Config{
			Program:    cfg.Programs[pi].Prog,
			ID:         fmt.Sprintf("pod-%s", u.ID),
			Hive:       podClient,
			Capture:    cfg.Capture,
			SampleRate: cfg.SampleRate,
			Privacy:    cfg.Privacy,
			Salt:       "fleet",
			Seed:       cfg.Seed ^ (uint64(i)+1)*0x9e37,
			Syscalls:   u.Syscalls(),
			BatchSize:  8,
			MaxSteps:   cfg.MaxSteps,
		})
		if err != nil {
			return nil, err
		}
		s.pods[i] = pd
	}
	return s, nil
}

// Run simulates the configured horizon and returns one row per day.
func (s *Simulation) Run() ([]DayMetrics, error) {
	out := make([]DayMetrics, 0, s.cfg.Days)
	var prevRuns, prevFailures, prevAverted int64
	for day := 0; day < s.cfg.Days; day++ {
		if err := s.simulateDay(); err != nil {
			return nil, err
		}
		var runs, failures, averted int64
		for _, pd := range s.pods {
			st := pd.Stats()
			runs += st.Runs
			failures += st.Failures
			averted += st.FailuresAverted
		}
		m := DayMetrics{
			Day:      day,
			Runs:     runs - prevRuns,
			Failures: failures - prevFailures,
			Averted:  averted - prevAverted,
		}
		prevRuns, prevFailures, prevAverted = runs, failures, averted
		if m.Runs > 0 {
			m.FailureRate = float64(m.Failures) / float64(m.Runs)
		}
		s.fillBackendMetrics(&m)
		out = append(out, m)
	}
	return out, nil
}

// workerCount resolves Config.Workers against the runtime and fleet size.
func (s *Simulation) workerCount() int {
	w := s.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(s.pods) {
		w = len(s.pods)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runPodDay simulates one pod's full day. The calling worker owns the pod —
// and its user's zipf/rng input streams — for the whole day, so the streams
// are consumed in run order regardless of how many workers share the fleet.
func (s *Simulation) runPodDay(i int) error {
	u := s.pop.Users()[i]
	pd := s.pods[i]
	p := s.progs[s.userProg[i]].Prog
	for r := 0; r < u.RunsPerDay; r++ {
		var input []int64
		if p.NumInputs > 0 {
			input = u.NextInput(p.NumInputs, s.pop.Domain())
		}
		if _, err := pd.RunOnce(input); err != nil {
			return err
		}
	}
	return pd.Flush()
}

// runFleet executes every pod's day across a bounded worker pool and
// streams each pod's buffered traces to the telemetry backend as pods
// complete. Pods are handed out via a shared counter; each is simulated by
// exactly one worker. Streaming the drain bounds peak memory to the days
// still in flight (instead of the whole fleet-day) and overlaps ingestion
// with simulation; because pods never read hive state mid-day, it changes
// nothing observable versus draining at the barrier.
//
// With a per-program backend (shardedDrain) every program gets its own
// drainer goroutine feeding the hive through the per-program submission
// path — programs ingest concurrently, and within a program
// traces still land in pod order, so results stay bit-for-bit identical to
// the sequential fleet. Otherwise one coordinator drains the whole fleet in
// pod order.
func (s *Simulation) runFleet() error {
	workers := s.workerCount()
	if workers == 1 {
		for i := range s.pods {
			if err := s.runPodDay(i); err != nil {
				return err
			}
			if err := s.drainPod(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errMu  sync.Mutex
		first  error
	)
	report := s.startDrainers()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(s.pods) {
					return
				}
				if err := s.runPodDay(i); err != nil {
					failed.Store(true)
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					return
				}
				report(i)
			}
		}()
	}
	wg.Wait()
	drainErr := report(-1) // close drainers and collect their first error
	if first != nil {
		return first
	}
	return drainErr
}

// startDrainers launches the day's drain pipeline and returns a report
// function: report(i) hands finished pod i to its drainer (never blocks —
// channels are buffered to fleet size); report(-1) shuts the drainers down
// and returns their first error.
//
// Sharded mode runs one drainer per program, each advancing a cursor
// through that program's pods in pod order — the per-program ingestion
// order a sequential fleet produces, without a fleet-wide coordinator
// serializing all programs. Unsharded mode keeps the single fleet-order
// coordinator.
func (s *Simulation) startDrainers() func(int) error {
	drainInOrder := func(list []int, completed <-chan int, done chan<- error) {
		ready := make(map[int]bool, len(list))
		cursor := 0
		for i := range completed {
			ready[i] = true
			for cursor < len(list) && ready[list[cursor]] {
				if err := s.drainPod(list[cursor]); err != nil {
					done <- err
					// Keep receiving so report() never blocks; the error
					// already ends the day.
					for range completed {
					}
					return
				}
				cursor++
			}
		}
		done <- nil
	}

	if !s.shardedDrain {
		all := make([]int, len(s.pods))
		for i := range all {
			all[i] = i
		}
		completed := make(chan int, len(s.pods))
		done := make(chan error, 1)
		go drainInOrder(all, completed, done)
		return func(i int) error {
			if i >= 0 {
				completed <- i
				return nil
			}
			close(completed)
			return <-done
		}
	}

	chans := make([]chan int, len(s.podsByProg))
	done := make(chan error, len(s.podsByProg))
	for pi, list := range s.podsByProg {
		chans[pi] = make(chan int, len(list))
		go drainInOrder(list, chans[pi], done)
	}
	return func(i int) error {
		if i >= 0 {
			chans[s.userProg[i]] <- i
			return nil
		}
		for _, ch := range chans {
			close(ch)
		}
		var first error
		for range chans {
			if err := <-done; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
}

// drainPod forwards one pod's queued traces to the backend.
func (s *Simulation) drainPod(i int) error {
	if bc := s.buffered[i]; bc != nil {
		return bc.Drain()
	}
	return nil
}

// drainBuffers forwards each pod's queued traces to the telemetry backend
// in pod order — the ingestion order a sequential fleet produces, which
// pins down fix synthesis (first trace of a new signature wins) and every
// other order-sensitive aggregate.
func (s *Simulation) drainBuffers() error {
	for i := range s.buffered {
		if err := s.drainPod(i); err != nil {
			return err
		}
	}
	return nil
}

func (s *Simulation) simulateDay() error {
	// runFleet is the day barrier: every pod has finished and every pod's
	// traces were ingested, in pod order.
	if err := s.runFleet(); err != nil {
		return err
	}
	// End of day: fix sync and optional steering (SoftBorg only).
	if s.cfg.Mode == ModeSoftBorg {
		for _, pd := range s.pods {
			if err := pd.SyncFixes(); err != nil {
				return err
			}
		}
		if s.cfg.GuidancePerDay > 0 {
			// One pod per program executes the day's steering budget; the
			// pulls run concurrently across programs, since guidance reads
			// (and certifies into) only its own program's hive state and each
			// steering pod is owned by exactly one goroutine. Results stay
			// bit-for-bit deterministic: steered runs land in each pod's own
			// buffer and drain in pod order afterwards, exactly as the
			// sequential loop produced them (TestParallelRunMatchesSequential).
			steer := make([]int, 0, len(s.progs))
			seen := make([]bool, len(s.progs))
			for i := range s.pods {
				if pi := s.userProg[i]; !seen[pi] {
					seen[pi] = true
					// Completed single-threaded programs get no steering
					// budget: with zero open frontiers the generator has no
					// input gaps to target, so the pull would burn a round
					// trip to receive an empty case list. Multi-threaded
					// programs still pull — guidance enumerates schedules
					// for them regardless of the frontier set.
					// FrontierCount is O(1), so this gate is free.
					if s.progs[pi].Prog.NumThreads() == 1 {
						if tree, err := s.hive.Tree(s.progs[pi].Prog.ID); err == nil && tree.FrontierCount() == 0 {
							continue
						}
					}
					steer = append(steer, i)
				}
			}
			errs := make([]error, len(steer))
			var wg sync.WaitGroup
			for k, i := range steer {
				wg.Add(1)
				go func(k, i int) {
					defer wg.Done()
					pd := s.pods[i]
					if _, err := pd.PullGuidance(s.cfg.GuidancePerDay); err != nil {
						errs[k] = err
						return
					}
					errs[k] = pd.Flush()
				}(k, i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			if err := s.drainBuffers(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Simulation) fillBackendMetrics(m *DayMetrics) {
	switch s.cfg.Mode {
	case ModeSoftBorg:
		var covered, total int
		for _, put := range s.progs {
			st, err := s.hive.ProgramStats(put.Prog.ID)
			if err != nil {
				continue
			}
			m.FixesCumulative += st.FixCount
			m.DistinctFailures += len(st.Failures)
			tree, err := s.hive.Tree(put.Prog.ID)
			if err != nil {
				continue
			}
			c, tot := tree.EdgeCoverage(put.Prog)
			covered += c
			total += tot
		}
		if total > 0 {
			m.EdgeCoverage = float64(covered) / float64(total)
		}
	case ModeWER:
		m.DistinctFailures = s.wer.Stats().Buckets
	case ModeCBI:
		// CBI tracks predicates, not failure signatures; report failing-run
		// count via stats (distinct signatures unavailable by design).
		m.DistinctFailures = 0
	}
}
