// Package softborg is the public API of this SoftBorg reproduction — a
// platform that recycles end-user execution by-products into collective
// execution trees, automated fixes, and cumulative proofs, after Candea,
// "Exterminating Bugs via Collective Information Recycling" (HotDep 2011).
//
// The platform's moving parts (Figure 1 of the paper):
//
//   - Programs run on a deterministic multi-threaded register VM
//     (BuildProgram / GenerateProgram). The VM stands in for the paper's
//     binary instrumentation: it emits the same by-products — branch
//     directions, lock events, syscall returns, outcomes — through an
//     observer interface.
//
//   - A Pod (NewPod) sits under each program instance: it captures traces
//     at a chosen granularity and privacy level, ships them to the hive,
//     pulls fixes (deadlock immunity, input guards), and executes steering
//     test cases.
//
//   - The Hive (NewHive) merges traces into per-program execution trees,
//     buckets failures, synthesizes and versions fixes, serves guidance
//     toward coverage gaps, and attempts cumulative proofs.
//
//   - A Journal (OpenJournal) makes the hive durable: every ingest
//     operation is written ahead to an append-only per-program journal and
//     periodically folded into full snapshots, so Hive.Recover rebuilds the
//     collective state — trees with their frontier indexes, failure
//     records, fixes, standing proofs, and the exactly-once wire dedup
//     table — after a crash. The journal stores only post-privacy traces:
//     exactly what pods chose to ship, never more.
//
//   - DialHive / ServeHive put the same pod↔hive API over TCP. Submission
//     frames carry session IDs and sequence numbers, so a client
//     resubmitting a partially-acknowledged stream after a reconnect (or a
//     hive restart) has every batch ingested exactly once.
//
//   - NewSimulation runs whole-fleet experiments (population × days ×
//     telemetry mode), the engine behind the headline bug-density results.
//
// Start with the examples/ directory: quickstart wires one pod to a hive,
// deadlockimmunity immunizes a fleet, portfoliosolver races SAT solvers,
// guidedcoverage shows hive steering, telemetryserver runs the loop over
// real sockets, and cumulativeproof turns everyday use into proofs.
package softborg

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exectree"
	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/hive"
	"repro/internal/journal"
	"repro/internal/pod"
	"repro/internal/population"
	"repro/internal/portfolio"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/proof"
	"repro/internal/sat"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Program model.
type (
	// Program is an immutable VM program (the unit SoftBorg observes).
	Program = prog.Program
	// ProgramBuilder assembles programs instruction by instruction.
	ProgramBuilder = prog.Builder
	// Machine executes one program instance.
	Machine = prog.Machine
	// MachineConfig parameterizes one execution.
	MachineConfig = prog.Config
	// Result describes a completed execution.
	Result = prog.Result
	// Outcome classifies how an execution ended.
	Outcome = prog.Outcome
	// Observer receives execution by-products.
	Observer = prog.Observer
	// SyscallModel supplies system-call return values (the environment).
	SyscallModel = prog.SyscallModel
	// FaultSpec hijacks designated syscalls (fault injection).
	FaultSpec = prog.FaultSpec
	// Cmp is a branch comparison condition.
	Cmp = prog.Cmp
)

// Execution outcomes.
const (
	OutcomeOK         = prog.OutcomeOK
	OutcomeCrash      = prog.OutcomeCrash
	OutcomeAssertFail = prog.OutcomeAssertFail
	OutcomeDeadlock   = prog.OutcomeDeadlock
	OutcomeHang       = prog.OutcomeHang
)

// Branch comparison conditions.
const (
	CmpEQ = prog.CmpEQ
	CmpNE = prog.CmpNE
	CmpLT = prog.CmpLT
	CmpLE = prog.CmpLE
	CmpGT = prog.CmpGT
	CmpGE = prog.CmpGE
)

// Telemetry model.
type (
	// Trace is one execution's by-products as shipped pod→hive.
	Trace = trace.Trace
	// CaptureMode selects recording granularity.
	CaptureMode = trace.CaptureMode
	// PrivacyLevel controls what input data leaves the user's machine.
	PrivacyLevel = trace.PrivacyLevel
)

// Capture modes (paper §3.1).
const (
	CaptureFull         = trace.CaptureFull
	CaptureExternalOnly = trace.CaptureExternalOnly
	CaptureSampled      = trace.CaptureSampled
)

// Privacy levels (paper §3.1).
const (
	PrivacyRaw      = trace.PrivacyRaw
	PrivacyBucketed = trace.PrivacyBucketed
	PrivacyHashed   = trace.PrivacyHashed
	PrivacyOpaque   = trace.PrivacyOpaque
)

// Platform components.
type (
	// Pod is the client runtime under one program instance.
	Pod = pod.Pod
	// PodConfig parameterizes a pod.
	PodConfig = pod.Config
	// PodStats are pod-side counters.
	PodStats = pod.Stats
	// HiveClient is what a pod needs from a hive (in-process or remote).
	HiveClient = pod.HiveClient
	// Hive is the aggregation and analysis center.
	Hive = hive.Hive
	// HiveStats is a per-program hive snapshot.
	HiveStats = hive.Stats
	// FailureRecord aggregates one failure signature fleet-wide.
	FailureRecord = hive.FailureRecord
	// Tree is a collective execution tree.
	Tree = exectree.Tree
	// Fix is a distributable behaviour correction.
	Fix = fix.Fix
	// TestCase is one hive steering instruction.
	TestCase = guidance.TestCase
	// Proof is a (possibly partial) cumulative proof.
	Proof = proof.Proof
	// ScheduleProof is a bounded proof over thread interleavings.
	ScheduleProof = proof.ScheduleProof
	// Property is a provable behavioural property.
	Property = proof.Property
	// HiveServer serves the hive API over TCP.
	HiveServer = wire.Server
	// HiveConn is a TCP HiveClient.
	HiveConn = wire.Client
	// TraceBuffer defers a pod's trace uploads until Drain — the
	// determinism lever for parallel fleets. It is bound to one program
	// (NewTraceBufferFor) and drains into the backend's per-program,
	// pipelined streaming submission paths.
	TraceBuffer = pod.BufferedClient
	// Journal is the hive's persistence store: per-program write-ahead
	// journals plus rotating snapshots (see Hive.Recover / Hive.Checkpoint).
	Journal = journal.Store
	// JournalOptions configures a Journal (e.g. fsync-per-append).
	JournalOptions = journal.Options
)

// Provable properties (paper §3.3).
const (
	PropNoCrash      = proof.PropNoCrash
	PropNoAssertFail = proof.PropNoAssertFail
	PropAllOK        = proof.PropAllOK
	PropNoDeadlock   = proof.PropNoDeadlock
)

// Program generation (the workload substrate).
type (
	// GenSpec parameterizes random program generation.
	GenSpec = proggen.Spec
	// BugKind classifies planted bugs.
	BugKind = proggen.BugKind
	// Bug is planted-bug ground truth.
	Bug = proggen.Bug
)

// Planted bug kinds.
const (
	BugCrash        = proggen.BugCrash
	BugAssert       = proggen.BugAssert
	BugHang         = proggen.BugHang
	BugSyscallCrash = proggen.BugSyscallCrash
	BugDeadlock     = proggen.BugDeadlock
)

// Fleet simulation.
type (
	// Simulation is a configured whole-fleet experiment.
	Simulation = core.Simulation
	// SimulationConfig parameterizes it.
	SimulationConfig = core.Config
	// SimulationMode selects the telemetry backend.
	SimulationMode = core.Mode
	// DayMetrics is one simulated day's measurements.
	DayMetrics = core.DayMetrics
	// ProgramUnderTest couples a program with its bug ground truth.
	ProgramUnderTest = core.ProgramUnderTest
	// PopulationConfig shapes the simulated user fleet.
	PopulationConfig = population.Config
)

// Simulation modes.
const (
	ModeNone     = core.ModeNone
	ModeWER      = core.ModeWER
	ModeCBI      = core.ModeCBI
	ModeSoftBorg = core.ModeSoftBorg
)

// Cooperative solving.
type (
	// SATFormula is a CNF formula.
	SATFormula = sat.Formula
	// SATSolver decides CNF formulas.
	SATSolver = sat.Solver
	// RaceResult is a portfolio race outcome.
	RaceResult = portfolio.RaceResult
	// ClusterMode selects execution-tree partitioning policy.
	ClusterMode = cluster.Mode
	// ClusterResult summarizes a distributed exploration.
	ClusterResult = cluster.Result
)

// Cluster partitioning policies (paper §4).
const (
	ClusterStatic    = cluster.Static
	ClusterDynamic   = cluster.Dynamic
	ClusterMarkowitz = cluster.Markowitz
)

// BuildProgram starts a program with the given name and input arity.
func BuildProgram(name string, numInputs int) *ProgramBuilder {
	return prog.NewBuilder(name, numInputs)
}

// GenerateProgram builds a random program with planted bugs per spec.
func GenerateProgram(spec GenSpec) (*Program, []Bug, error) {
	return proggen.Generate(spec)
}

// NewHive creates an aggregation center. salt is the fleet-wide
// input-digest salt.
func NewHive(salt string) *Hive { return hive.New(salt) }

// OpenJournal opens (creating if needed) a hive persistence directory.
// Pass it to Hive.Recover after registering the program corpus: the hive
// restores snapshot + journal suffix and journals every mutation from then
// on; Hive.Checkpoint folds the journal into fresh snapshots.
func OpenJournal(dir string, opts JournalOptions) (*Journal, error) {
	return journal.Open(dir, opts)
}

// NewPod creates a pod.
func NewPod(cfg PodConfig) (*Pod, error) { return pod.New(cfg) }

// NewTraceBufferFor wraps a hive client for a pod running exactly one
// program, so trace uploads defer until Drain. A drain ships frame-sized
// batches: over TCP it streams pipelined sealed frames, exactly-once across
// drains, instead of one upload per round trip.
func NewTraceBufferFor(backend HiveClient, programID string) *TraceBuffer {
	return pod.NewBufferedFor(backend, programID)
}

// DialHive returns a HiveClient speaking the wire protocol to addr.
func DialHive(addr string) *HiveConn { return wire.Dial(addr) }

// ServeHive exposes a hive (or any HiveClient backend) over TCP; it returns
// the server and its bound address.
func ServeHive(backend HiveClient, addr string) (*HiveServer, string, error) {
	srv := wire.NewServer(backend)
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

// NewSimulation wires a whole-fleet experiment.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	return core.NewSimulation(cfg)
}

// NewSATPortfolio returns the paper's portfolio-of-three: three complete
// DPLL solvers with deliberately different decision heuristics.
func NewSATPortfolio() []SATSolver {
	return []SATSolver{sat.NewChrono(), sat.NewJW(), sat.NewRandom(42)}
}

// RaceSolvers runs the solvers concurrently on f, first decisive answer
// wins (paper §4).
func RaceSolvers(f *SATFormula, solvers []SATSolver, maxTicks int64) RaceResult {
	return portfolio.Race(f, solvers, maxTicks)
}

// ExploreTree distributes symbolic exploration of p's execution tree across
// worker nodes under the given partitioning policy (paper §4).
func ExploreTree(p *Program, nodes int, mode ClusterMode) (*ClusterResult, error) {
	return cluster.Explore(p, nodes, mode)
}
