// Package pod implements the client side of Figure 1: the lightweight
// runtime underneath every program instance. A pod observes executions
// (capturing by-products at a configurable granularity and privacy level),
// batches traces to the hive, pulls and applies fixes (deadlock-immunity
// gates, input guards), and executes hive guidance (steered inputs,
// schedules, and injected syscall faults).
package pod

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/deadlock"
	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/prog"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ErrDeferred reports that the backend declined to ingest a batch right
// now under overload: the batch was NOT applied (no journal op, no
// session mark), and the submitter should retry it after a pause — for
// sealed frames, verbatim, so exactly-once semantics are untouched.
// hive.Hive wraps it when rarity-priced load shedding defers low-value
// work; wire.Server maps it to MsgBusy.
var ErrDeferred = errors.New("pod: ingest deferred under overload")

// ErrReadOnly reports that the backend has flipped a program to read-only
// after persistent journal write failures (disk full, dead device): the
// batch was NOT applied and resubmitting it will keep failing until the
// disk recovers — unlike ErrDeferred, this is not transient backpressure.
// Guidance reads still work. hive.Hive wraps it when a program's journal
// breaker opens; wire.Server maps it to MsgBusy (reason "readonly").
var ErrReadOnly = errors.New("pod: backend read-only after journal write failure")

// PressureSink is an optional backend extension letting the transport
// install a load-pressure gauge: a function returning the current ingest
// pressure in [0, 1] (0 = idle, 1 = at the configured queue budget). The
// hive's load-shedding watermark reads it before pricing each batch;
// keeping the gauge injected (rather than the hive reading clocks or
// queues itself) keeps hive state deterministic and transport-agnostic.
// hive.Hive implements it; wire.Server installs its queued-bytes gauge at
// Listen when admission control is configured.
type PressureSink interface {
	SetPressureSource(func() float64)
}

// HiveClient is what a pod needs from the hive. internal/hive implements it
// directly (in-process fleets) and internal/wire implements it over TCP.
type HiveClient interface {
	// SubmitTraces uploads a batch of traces.
	SubmitTraces(traces []*trace.Trace) error
	// FixesSince returns fixes with ID > version and the current version.
	FixesSince(programID string, version int) ([]fix.Fix, int, error)
	// Guidance returns up to max steering test cases.
	Guidance(programID string, max int) ([]guidance.TestCase, error)
}

// SealedBatch is one trace batch sealed into a transport frame whose
// exactly-once identity (session ID + frame sequence number) was fixed at
// seal time. The payload is opaque to the pod; what matters is that
// resubmitting the same unacknowledged SealedBatch — on any connection, in
// any later drain — presents the identical tag to the backend's dedup
// window, so a batch delivered but never acknowledged is ingested exactly
// once no matter how many drains retry it.
type SealedBatch struct {
	// ProgramID is the program every trace in the batch describes.
	ProgramID string
	// Count is the number of traces sealed in (ack validation and
	// accounting).
	Count int
	// Payload is the transport-encoded frame, tags included: the
	// (session, seq) tag, then the batch in the columnar encoding.
	Payload []byte
	// Compressed marks a payload whose batch bytes were sealed
	// DEFLATE-compressed (sent as its own frame type). The backend
	// inflates back to the canonical columnar bytes before ingest, so
	// dedup and journal identity are unchanged.
	Compressed bool
}

// SealedStreamer is an optional HiveClient extension for networked
// backends, splitting submission into seal and submit halves: SealTraceBatches
// assigns each batch its durable (session, seq) tag and encodes the frame;
// SubmitSealed streams previously sealed frames and reports, per frame,
// whether the backend acknowledged it. wire.Client implements it;
// BufferedClient uses it to persist sealed-but-unacknowledged frames
// across drains, extending the exactly-once guarantee past a drain whose
// transparent retry also failed.
//
// SubmitSealed consumes the frames it acknowledges. Resend only what it did
// not acknowledge.
type SealedStreamer interface {
	SealTraceBatches(programID string, batches [][]*trace.Trace) []SealedBatch
	SubmitSealed(sealed []SealedBatch) ([]bool, error)
}

// ColumnarSubmitter is the backend's one ingest method: a columnar-encoded
// batch (trace.BatchCodec) arrives as a validated BatchView over the wire
// frame's own bytes, tagged with the submitting client's session ID and a
// per-frame sequence number. The backend keeps, per session, the exact set
// of applied sequence numbers (journaled with the batch when the backend is
// durable), so a client resubmitting a partially-acknowledged stream over a
// new connection — or across a backend restart — has each batch ingested
// exactly once; dup reports that the batch was already applied and is
// acknowledged without re-ingesting. An empty session opts out of dedup
// (in-process drains, where there is no link to lose). A wire.Server
// requires its backend to implement it; BufferedClient drains an
// in-process backend through it. The backend reads fields straight out of the
// view — materializing traces only where it must retain or mutate them —
// and, when durable, journals view.Bytes() verbatim, so the pod's one
// serialization of the batch survives to the journal unchanged. The view is
// only valid for the duration of the call: the transport recycles the
// underlying frame buffer after it returns. hive.Hive implements it.
type ColumnarSubmitter interface {
	SubmitColumnarSession(session string, seq uint64, batch *trace.BatchView) (dup bool, err error)
}

// Config parameterizes a pod.
type Config struct {
	// Program is the instrumented program.
	Program *prog.Program
	// ID names the pod; required.
	ID string
	// Hive is the telemetry sink; nil runs the pod dark (capture only).
	Hive HiveClient
	// Capture selects the recording granularity (default: external-only,
	// the paper's preferred low-cost mode).
	Capture trace.CaptureMode
	// SampleRate is the per-branch probability for CaptureSampled.
	SampleRate float64
	// Privacy selects how much input data leaves the machine (default:
	// hashed).
	Privacy trace.PrivacyLevel
	// Salt is the fleet-wide digest salt.
	Salt string
	// Seed drives the pod's local randomness (sampling, schedules).
	Seed uint64
	// Syscalls is the user's environment; nil means a deterministic model
	// derived from Seed.
	Syscalls prog.SyscallModel
	// Preempt is the context-switch probability for the pod's natural
	// scheduler on multi-threaded programs (default 0.3).
	Preempt float64
	// BatchSize is the trace-upload batch (default 16).
	BatchSize int
	// MaxSteps is the per-run fuel limit (default prog.DefaultMaxSteps).
	MaxSteps int64
}

// Stats are pod-side counters.
type Stats struct {
	Runs            int64
	Failures        int64
	GuardedRuns     int64 // runs where an input guard replaced the input
	ImmunityVetoes  int64 // lock acquisitions deferred by the gate
	TracesUploaded  int64
	GuidedRuns      int64
	FixVersion      int
	FailuresAverted int64 // guard fired and the run then succeeded
}

// Pod runs one program instance under observation. It owns one collector
// and one machine and lends them to one run at a time, so a run allocates
// only the trace it ships (plus, once deadlock signatures are installed, its
// gate). A run that finds them lent out builds its own.
type Pod struct {
	cfg Config

	mu        sync.Mutex
	seq       uint64
	pending   []*trace.Trace
	guards    []fix.InputGuard
	sigs      []deadlock.Signature
	version   int
	rng       *stats.RNG
	stats     Stats
	collector *trace.Collector // nil while lent to a run
	machine   *prog.Machine    // lent with collector
}

// New creates a pod. The configuration is validated eagerly.
func New(cfg Config) (*Pod, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("pod: nil program")
	}
	if cfg.ID == "" {
		return nil, fmt.Errorf("pod: empty ID")
	}
	if cfg.Capture == 0 {
		cfg.Capture = trace.CaptureExternalOnly
	}
	if cfg.Privacy == 0 {
		cfg.Privacy = trace.PrivacyHashed
	}
	if cfg.Preempt == 0 {
		cfg.Preempt = 0.3
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Syscalls == nil {
		cfg.Syscalls = &prog.DeterministicSyscalls{Seed: cfg.Seed}
	}
	return &Pod{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}, nil
}

// Program returns the pod's program.
func (p *Pod) Program() *prog.Program { return p.cfg.Program }

// Stats returns a snapshot of the pod's counters.
func (p *Pod) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.FixVersion = p.version
	return s
}

// SyncFixes pulls new fixes from the hive and installs them. Overlapping
// syncs may fetch the same fixes; each is installed once, by ID.
func (p *Pod) SyncFixes() error {
	if p.cfg.Hive == nil {
		return nil
	}
	p.mu.Lock()
	version := p.version
	p.mu.Unlock()

	fixes, newVersion, err := p.cfg.Hive.FixesSince(p.cfg.Program.ID, version)
	if err != nil {
		return fmt.Errorf("pod %s: sync fixes: %w", p.cfg.ID, err)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range fixes {
		if f.ID <= p.version {
			continue
		}
		switch f.Kind {
		case fix.KindDeadlockImmunity:
			if f.Deadlock != nil {
				p.sigs = append(p.sigs, *f.Deadlock)
			}
		case fix.KindInputGuard:
			if f.Guard != nil {
				p.guards = append(p.guards, *f.Guard)
			}
		}
	}
	p.version = max(p.version, newVersion)
	return nil
}

// RunOnce executes the program once on the given input under the pod's
// current fixes, records the trace, and returns the (possibly fix-modified)
// result.
func (p *Pod) RunOnce(input []int64) (prog.Result, error) {
	return p.run(input, nil, nil)
}

// RunGuided executes one hive test case.
func (p *Pod) RunGuided(tc guidance.TestCase) (prog.Result, error) {
	if tc.ProgramID != p.cfg.Program.ID {
		return prog.Result{}, fmt.Errorf("pod %s: test case for program %s, running %s",
			p.cfg.ID, tc.ProgramID, p.cfg.Program.ID)
	}
	input := tc.Input
	if input == nil {
		input = p.naturalInput()
	}
	var scheduler prog.Scheduler
	if tc.Schedule != nil {
		scheduler = sched.NewSystematic(tc.Schedule)
	}
	res, err := p.run(input, tc.Faults, scheduler)
	if err == nil {
		p.mu.Lock()
		p.stats.GuidedRuns++
		p.mu.Unlock()
	}
	return res, err
}

// naturalInput draws an arbitrary input when a guided test case does not
// pin one.
func (p *Pod) naturalInput() []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int64, p.cfg.Program.NumInputs)
	for i := range out {
		out[i] = p.rng.Int63n(256)
	}
	return out
}

func (p *Pod) run(input []int64, faults []prog.FaultSpec, scheduler prog.Scheduler) (prog.Result, error) {
	p.mu.Lock()
	// Apply input guards: a matching input is replaced by the guard's safe
	// input, which the run only reads (Finish copies what the trace keeps).
	guarded := false
	effective := input
	for i := range p.guards {
		if p.guards[i].Matches(effective) {
			effective = p.guards[i].SafeInput
			guarded = true
		}
	}
	// Borrow the pod's collector and machine.
	seed := p.rng.Uint64()
	collector, m := p.collector, p.machine
	p.collector, p.machine = nil, nil
	if collector == nil {
		collector = trace.NewCollector(p.cfg.Program, p.cfg.Capture, p.cfg.SampleRate, seed)
	} else {
		collector.Reseed(seed)
	}
	var gate *deadlock.Gate
	observer := prog.Observer(collector)
	if len(p.sigs) > 0 {
		gate = deadlock.NewGate(p.sigs)
		observer = prog.MultiObserver{collector, gate}
	}
	multiThreaded := p.cfg.Program.NumThreads() > 1
	if multiThreaded {
		collector.RecordSchedule()
	}
	if scheduler == nil && multiThreaded {
		scheduler = sched.NewRandom(p.rng.Uint64(), p.cfg.Preempt)
	}
	syscalls := p.cfg.Syscalls
	if len(faults) > 0 {
		syscalls = &prog.FaultInjector{Base: syscalls, Faults: faults}
	}
	seq := p.seq
	p.seq++
	p.mu.Unlock()

	mcfg := prog.Config{
		Input:     effective,
		Scheduler: scheduler,
		Syscalls:  syscalls,
		Observer:  observer,
		MaxSteps:  p.cfg.MaxSteps,
	}
	if gate != nil {
		// Assign only when non-nil: a typed nil in the interface would make
		// the VM call through it.
		mcfg.Gate = gate
	}
	var err error
	if m == nil {
		m, err = prog.NewMachine(p.cfg.Program, mcfg)
	} else {
		err = m.Restart(mcfg)
	}
	if err != nil {
		return prog.Result{}, fmt.Errorf("pod %s: %w", p.cfg.ID, err)
	}
	res := m.Run()

	tr := collector.Finish(p.cfg.ID, seq, res, effective, p.cfg.Privacy, p.cfg.Salt)
	collector.Reset()

	p.mu.Lock()
	if p.collector == nil {
		p.collector, p.machine = collector, m
	}
	p.stats.Runs++
	if res.Outcome.IsFailure() {
		p.stats.Failures++
	}
	if guarded {
		p.stats.GuardedRuns++
		if !res.Outcome.IsFailure() {
			p.stats.FailuresAverted++
		}
	}
	if gate != nil {
		p.stats.ImmunityVetoes += gate.Vetoes
	}
	p.pending = append(p.pending, tr)
	flush := len(p.pending) >= p.cfg.BatchSize
	p.mu.Unlock()

	if flush {
		if err := p.Flush(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// Flush uploads pending traces to the hive.
func (p *Pod) Flush() error {
	if p.cfg.Hive == nil {
		p.mu.Lock()
		p.pending = nil
		p.mu.Unlock()
		return nil
	}
	p.mu.Lock()
	batch := p.pending
	p.pending = nil
	p.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	if err := p.cfg.Hive.SubmitTraces(batch); err != nil {
		// Re-queue on failure: telemetry must tolerate flaky links.
		p.mu.Lock()
		p.pending = append(batch, p.pending...)
		p.mu.Unlock()
		return fmt.Errorf("pod %s: flush: %w", p.cfg.ID, err)
	}
	p.mu.Lock()
	p.stats.TracesUploaded += int64(len(batch))
	p.mu.Unlock()
	return nil
}

// PullGuidance fetches up to max test cases and runs them all.
func (p *Pod) PullGuidance(max int) (int, error) {
	if p.cfg.Hive == nil {
		return 0, nil
	}
	cases, err := p.cfg.Hive.Guidance(p.cfg.Program.ID, max)
	if err != nil {
		return 0, fmt.Errorf("pod %s: guidance: %w", p.cfg.ID, err)
	}
	for _, tc := range cases {
		if _, err := p.RunGuided(tc); err != nil {
			return 0, err
		}
	}
	return len(cases), nil
}
