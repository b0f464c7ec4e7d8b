package softborg

// One benchmark per experiment (E1–E11, see EXPERIMENTS.md): each runs the
// exact table-generating code from internal/experiments and reports the
// experiment's headline numbers as custom benchmark metrics, so
// `go test -bench=.` regenerates every figure/claim reproduction. The
// rendered tables themselves come from `go run ./cmd/softborg-bench`.
//
// The file also carries hot-path micro-benchmarks (VM interpretation, trace
// codec, tree merging, solving) for -benchmem profiling. The end-to-end
// ingest, wire and WAN numbers come from benchmark/ (EXPERIMENTS.md E26).

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exectree"
	"repro/internal/experiments"
	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/hive"
	"repro/internal/population"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/sat"
	"repro/internal/stats"
	"repro/internal/trace"
)

// runExperiment executes one experiment table per iteration and reports its
// metrics.
func runExperiment(b *testing.B, run func() (*experiments.Table, error)) {
	b.Helper()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = tbl
	}
	for name, v := range last.Metrics {
		b.ReportMetric(v, name)
	}
}

func BenchmarkE1TreeMerge(b *testing.B)          { runExperiment(b, experiments.E1TreeMerge) }
func BenchmarkE2PopulationCoverage(b *testing.B) { runExperiment(b, experiments.E2PopulationCoverage) }
func BenchmarkE3SolverPortfolio(b *testing.B)    { runExperiment(b, experiments.E3SolverPortfolio) }
func BenchmarkE4GuidedCoverage(b *testing.B)     { runExperiment(b, experiments.E4GuidedCoverage) }
func BenchmarkE5DeadlockImmunity(b *testing.B)   { runExperiment(b, experiments.E5DeadlockImmunity) }
func BenchmarkE6BugDensity(b *testing.B)         { runExperiment(b, experiments.E6BugDensity) }
func BenchmarkE7CaptureOverhead(b *testing.B)    { runExperiment(b, experiments.E7CaptureOverhead) }
func BenchmarkE8DynamicPartitioning(b *testing.B) {
	runExperiment(b, experiments.E8DynamicPartitioning)
}
func BenchmarkE9CumulativeProofs(b *testing.B) { runExperiment(b, experiments.E9CumulativeProofs) }
func BenchmarkE10Privacy(b *testing.B)         { runExperiment(b, experiments.E10Privacy) }
func BenchmarkE11WireThroughput(b *testing.B)  { runExperiment(b, experiments.E11WireThroughput) }
func BenchmarkE12CrashRecovery(b *testing.B)   { runExperiment(b, experiments.E12CrashRecovery) }

// --- hot-path micro-benchmarks ---

func benchProgram(b *testing.B) *prog.Program {
	b.Helper()
	p, _, err := proggen.Generate(proggen.Spec{
		Seed: 77, Depth: 6, Loops: 2, Syscalls: 1, NumInputs: 2, DetBranches: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkVMExecution measures raw interpretation speed, uninstrumented.
func BenchmarkVMExecution(b *testing.B) {
	p := benchProgram(b)
	rng := stats.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		m, err := prog.NewMachine(p, prog.Config{Input: []int64{rng.Int63n(256), rng.Int63n(256)}})
		if err != nil {
			b.Fatal(err)
		}
		steps += m.Run().Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
}

// BenchmarkVMExecutionInstrumented measures interpretation with full
// capture — the pod's steady-state cost.
func BenchmarkVMExecutionInstrumented(b *testing.B) {
	p := benchProgram(b)
	rng := stats.NewRNG(1)
	col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Reset()
		input := []int64{rng.Int63n(256), rng.Int63n(256)}
		m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
		if err != nil {
			b.Fatal(err)
		}
		res := m.Run()
		col.Finish("pod", uint64(i), res, input, trace.PrivacyHashed, "s")
	}
}

// BenchmarkTreeMerge measures per-trace merge cost into a warm tree. Its 256
// paths and the tree they build stay in cache, so it cannot show a change in
// per-step memory traffic; BenchmarkApplyFrame (internal/hive) merges whole
// frames as ingest does.
func BenchmarkTreeMerge(b *testing.B) {
	p := benchProgram(b)
	rng := stats.NewRNG(2)
	col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
	paths := make([][]trace.BranchEvent, 256)
	outcomes := make([]prog.Outcome, 256)
	for i := range paths {
		col.Reset()
		input := []int64{rng.Int63n(256), rng.Int63n(256)}
		m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
		if err != nil {
			b.Fatal(err)
		}
		res := m.Run()
		tr := col.Finish("pod", uint64(i), res, input, trace.PrivacyHashed, "s")
		paths[i] = tr.Branches
		outcomes[i] = tr.Outcome
	}
	tree := exectree.New(p.ID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Merge(paths[i%len(paths)], outcomes[i%len(paths)])
	}
}

// BenchmarkDPLLPhaseTransition measures one solver on a hard instance.
func BenchmarkDPLLPhaseTransition(b *testing.B) {
	rng := stats.NewRNG(3)
	f := sat.Random3SAT(rng, 60, 4.26)
	solver := sat.NewJW()
	b.ResetTimer()
	var ticks int64
	for i := 0; i < b.N; i++ {
		res := solver.Solve(f, 0, nil)
		ticks += res.Ticks
	}
	b.ReportMetric(float64(ticks)/float64(b.N), "ticks/solve")
}

// --- hive sharding and fleet parallelism benchmarks ---

// BenchmarkHiveIngestExternalOnly measures both sides of the per-program
// reconstructor on cmd/pod's default traffic: 64 columnar frames of 16
// external-only traces (what pod_loop ships). first-sight ingests the pool
// into a hive that has never seen the program run, so every distinct trace
// re-executes the program once; repeat ingests the same pool into a hive
// that already has, so every trace merges from a remembered path. The work
// per op is the same pool, so ns/op and B/op compare directly; hit-share is
// the measured share of lookups answered from memory.
func BenchmarkHiveIngestExternalOnly(b *testing.B) {
	const frames, frameTraces = 64, 16
	p, _, err := proggen.Generate(proggen.Spec{
		Seed: 950, Depth: 6, Loops: 1, NumInputs: 2, Syscalls: 1, DetBranches: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(12)
	pool := make([][]byte, frames)
	for f := range pool {
		batch := make([]*trace.Trace, frameTraces)
		for i := range batch {
			col := trace.NewCollector(p, trace.CaptureExternalOnly, 0, 1)
			input := []int64{rng.Int63n(256), rng.Int63n(256)}
			m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
			if err != nil {
				b.Fatal(err)
			}
			batch[i] = col.Finish("bench-pod", uint64(f*frameTraces+i), m.Run(), input, trace.PrivacyHashed, "fleet")
		}
		if pool[f], err = trace.EncodeBatch(p.ID, batch); err != nil {
			b.Fatal(err)
		}
	}
	newHive := func() *hive.Hive {
		h := hive.New("fleet")
		if err := h.RegisterProgram(p); err != nil {
			b.Fatal(err)
		}
		return h
	}
	ingestPool := func(h *hive.Hive) {
		for _, frame := range pool {
			if _, err := submitFrame(h, "", 0, frame); err != nil {
				b.Fatal(err)
			}
		}
	}
	report := func(b *testing.B, h *hive.Hive, before exectree.ReconstructorStats) {
		st, err := h.ProgramStats(p.ID)
		if err != nil {
			b.Fatal(err)
		}
		hits, misses := st.Reconstructor.Hits-before.Hits, st.Reconstructor.Misses-before.Misses
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit-share")
		b.ReportMetric(frames*frameTraces, "traces/op")
	}
	b.Run("first-sight", func(b *testing.B) {
		b.ReportAllocs()
		var h *hive.Hive
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h = newHive()
			b.StartTimer()
			ingestPool(h)
		}
		report(b, h, exectree.ReconstructorStats{})
	})
	b.Run("repeat", func(b *testing.B) {
		h := newHive()
		ingestPool(h)
		warm, err := h.ProgramStats(p.ID)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ingestPool(h)
		}
		report(b, h, warm.Reconstructor)
	})
}

// benchSimulation runs one whole-fleet SoftBorg day-loop per iteration.
func benchSimulation(b *testing.B, workers int) {
	b.Helper()
	corpus := make([]core.ProgramUnderTest, 3)
	for i := range corpus {
		p, bugs, err := proggen.Generate(proggen.Spec{
			Seed: uint64(700 + i), Depth: 4,
			Bugs:         []proggen.BugKind{proggen.BugCrash},
			TriggerWidth: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		corpus[i] = core.ProgramUnderTest{Prog: p, Bugs: bugs}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := core.NewSimulation(core.Config{
			Seed:       9,
			Programs:   corpus,
			Population: population.Config{Users: 32, MeanRunsPerDay: 8},
			Days:       2,
			Mode:       core.ModeSoftBorg,
			Workers:    workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationSequential is the one-worker fleet loop baseline.
func BenchmarkSimulationSequential(b *testing.B) { benchSimulation(b, 1) }

// BenchmarkSimulationParallel runs the same fleet across GOMAXPROCS
// workers; results are bit-for-bit identical to the sequential run (see
// core.TestParallelRunMatchesSequential), only the wall clock changes.
func BenchmarkSimulationParallel(b *testing.B) { benchSimulation(b, 0) }

// --- guidance read-path and wire pipelining benchmarks ---

// buildGuidanceTree merges n real executions of p (random inputs) into a
// fresh tree — the realistic tree shape the hive's guidance path reads.
func buildGuidanceTree(b *testing.B, p *prog.Program, merges int) *exectree.Tree {
	b.Helper()
	rng := stats.NewRNG(5)
	tree := exectree.New(p.ID)
	col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
	for i := 0; i < merges; i++ {
		col.Reset()
		input := make([]int64, p.NumInputs)
		for j := range input {
			input[j] = rng.Int63n(256)
		}
		m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
		if err != nil {
			b.Fatal(err)
		}
		res := m.Run()
		tr := col.Finish("bench-pod", uint64(i), res, input, trace.PrivacyHashed, "s")
		tree.Merge(tr.Branches, tr.Outcome)
	}
	return tree
}

// BenchmarkGuidanceLargeTree measures the guidance read path as the tree
// grows: the full-walk baseline (what Guidance used to do under the tree
// read-lock on every request) against the open-set snapshot, whose cost
// tracks the open-frontier count, not the tree size; and end-to-end
// test-case generation twice — a first pull, by a generator that has not
// seen the tree's frontiers and solves its whole window, and a repeated
// pull, which answers that window from memory and is what every pull but
// the first costs while the window does not move.
func BenchmarkGuidanceLargeTree(b *testing.B) {
	p, _, err := proggen.Generate(proggen.Spec{
		Seed: 505, Depth: 8, Loops: 2, Syscalls: 1, NumInputs: 4, DetBranches: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	newGenerator := func() *guidance.Generator {
		gen, err := guidance.NewGenerator(p, 0)
		if err != nil {
			b.Fatal(err)
		}
		return gen
	}
	for _, merges := range []int{256, 2048, 16384} {
		tree := buildGuidanceTree(b, p, merges)
		nodes := tree.Stats().Nodes
		b.Run(fmt.Sprintf("fullwalk-baseline/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tree.FrontiersByWalk(32)
			}
		})
		b.Run(fmt.Sprintf("snapshot/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tree.Frontiers(32)
			}
		})
		b.Run(fmt.Sprintf("generate-first/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gen := newGenerator()
				b.StartTimer()
				gen.Generate(tree, 8)
			}
		})
		b.Run(fmt.Sprintf("generate-repeated/nodes=%d", nodes), func(b *testing.B) {
			gen := newGenerator()
			gen.Generate(tree, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen.Generate(tree, 8)
			}
		})
	}
}

// nullHive is a no-op backend isolating wire-transport cost
// (BenchmarkClusterIngest). It reads the view's branch column, as a real
// backend would.
type nullHive struct {
	ingested atomic.Int64
	events   int64 // one connection per backend: no concurrent use
}

func (n *nullHive) SubmitTraces(traces []*trace.Trace) error {
	n.ingested.Add(int64(len(traces)))
	return nil
}
func (n *nullHive) SubmitColumnarSession(_ string, _ uint64, batch *trace.BatchView) (bool, error) {
	for i := 0; i < batch.Len(); i++ {
		n.events += int64(len(batch.Branches(i)))
	}
	n.ingested.Add(int64(batch.Len()))
	return false, nil
}
func (n *nullHive) FixesSince(string, int) ([]fix.Fix, int, error) { return nil, 0, nil }
func (n *nullHive) Guidance(string, int) ([]guidance.TestCase, error) {
	return nil, nil
}

// shapedCorpus captures varied real traces (distinct inputs, real branch
// histories) in streamChunk-sized batches: compression ratios on this corpus
// are production-shaped — hot paths repeat, inputs differ — instead of the
// degenerate ratio identical cloned traces would give.
func shapedCorpus(b *testing.B, p *prog.Program, chunks, perChunk int) [][]*trace.Trace {
	b.Helper()
	out := make([][]*trace.Trace, chunks)
	for i := range out {
		out[i] = make([]*trace.Trace, perChunk)
		for j := range out[i] {
			n := i*perChunk + j
			input := []int64{int64(n * 13 % 160), int64(n * 7 % 90)}
			col := trace.NewCollector(p, trace.CaptureFull, 0, uint64(n+1))
			m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
			if err != nil {
				b.Fatal(err)
			}
			res := m.Run()
			out[i][j] = col.Finish(fmt.Sprintf("pod-%d", n%8), uint64(n), res, input, trace.PrivacyHashed, "s")
		}
	}
	return out
}
