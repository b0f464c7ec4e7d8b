package pod

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/constraint"
	"repro/internal/deadlock"
	"repro/internal/fix"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/race"
	"repro/internal/trace"
)

// memProg reads shared memory before it writes it, so a run that saw the
// previous run's memory would take a different path.
func memProg(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("mem-pod", 2).SetMem(2)
	stale, high, low, end := b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.Load(1, 0)
	b.BrImm(1, prog.CmpNE, 0, stale)
	b.Input(0, 0)
	b.Store(0, 0)
	b.BrImm(0, prog.CmpGE, 128, high)
	b.Input(2, 1)
	b.Syscall(5, 3, 2)
	b.BrImm(5, prog.CmpLT, 64, low)
	b.Jmp(end)
	b.Bind(high)
	b.Syscall(5, 4, 0)
	b.Jmp(end)
	b.Bind(low)
	b.Store(1, 5)
	b.Jmp(end)
	b.Bind(stale)
	b.Const(3, 0)
	b.Div(4, 3, 3)
	b.Bind(end)
	b.Halt()
	return b.MustBuild()
}

// threadedProg is a generated program whose planted deadlock adds threads
// and locks.
func threadedProg(t *testing.T) *prog.Program {
	t.Helper()
	p, _ := proggen.MustGenerate(proggen.Spec{
		Seed: 7, Depth: 4, Loops: 1, Syscalls: 1, DetBranches: 2,
		Bugs: []proggen.BugKind{proggen.BugCrash, proggen.BugDeadlock},
	})
	if p.NumThreads() < 2 || p.NumLocks == 0 {
		t.Fatalf("generated program has %d threads and %d locks, want several of each", p.NumThreads(), p.NumLocks)
	}
	return p
}

// guardFixes returns n input guards on input 0 with the given safe input,
// the first over [200, 210] and the rest over ranges the test inputs never
// reach.
func guardFixes(n int, safe []int64) []fix.Fix {
	out := make([]fix.Fix, n)
	for i := range out {
		lo := int64(200 + 1000*i)
		pc := constraint.PathCondition{
			constraint.NewConstraint(constraint.Var(0), prog.CmpGE, constraint.Const(lo)),
			constraint.NewConstraint(constraint.Var(0), prog.CmpLE, constraint.Const(lo+10)),
		}
		out[i] = fix.Fix{ID: i + 1, Kind: fix.KindInputGuard, Guard: &fix.InputGuard{
			Danger: fix.TermsFromCondition(pc), SafeInput: safe,
		}}
	}
	return out
}

// TestPodReuseMatchesFresh runs the same pod twice under one seed: once
// building its collector, machine and traces afresh for every run and
// keeping every trace, once reusing its collector and machine and flushing
// every four runs, so each batch is recycled and later traces are built over
// its memory. Each capture mode, and a multi-threaded program, must ship
// byte-identical traces either way.
func TestPodReuseMatchesFresh(t *testing.T) {
	cases := []struct {
		name    string
		program *prog.Program
		capture trace.CaptureMode
		rate    float64
	}{
		{"full", memProg(t), trace.CaptureFull, 0},
		{"external-only", memProg(t), trace.CaptureExternalOnly, 0},
		{"sampled", memProg(t), trace.CaptureSampled, 0.5},
		{"multi-threaded", threadedProg(t), trace.CaptureFull, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(fresh bool) [][]byte {
				safe := make([]int64, tc.program.NumInputs)
				h := &fakeHive{fixes: guardFixes(3, safe), version: 3}
				batch := 4
				if fresh {
					batch = 1 << 20
					// Two collections empty the free list, so the fresh
					// run's traces are new.
					runtime.GC()
					runtime.GC()
				}
				pd, err := New(Config{
					Program: tc.program, ID: "p", Hive: h, Capture: tc.capture, SampleRate: tc.rate,
					Privacy: trace.PrivacyRaw, Seed: 3, BatchSize: batch,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := pd.SyncFixes(); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 64; i++ {
					if fresh {
						pd.collector, pd.machine = nil, nil
					}
					input := make([]int64, tc.program.NumInputs)
					for k := range input {
						input[k] = int64((i*37 + k*101) % 256)
					}
					if _, err := pd.RunOnce(input); err != nil {
						t.Fatal(err)
					}
				}
				shipped := pd.pending
				if !fresh {
					shipped = h.traces
				}
				out := make([][]byte, len(shipped))
				for i, tr := range shipped {
					enc, err := trace.EncodeBatch(tr.ProgramID, []*trace.Trace{tr})
					if err != nil {
						t.Fatal(err)
					}
					out[i] = enc
				}
				return out
			}
			fresh, reused := run(true), run(false)
			if len(reused) != 64 || len(fresh) != 64 {
				t.Fatalf("captured %d and %d traces, want 64 each", len(reused), len(fresh))
			}
			for i := range reused {
				if !bytes.Equal(reused[i], fresh[i]) {
					t.Fatalf("run %d: reused collector, machine and traces ship a different trace than fresh ones", i)
				}
			}
		})
	}
}

// TestRunOnceConcurrent runs one pod from several goroutines: runs that find
// the collector and machine lent out build their own, and every run ships
// one trace with its own sequence number.
func TestRunOnceConcurrent(t *testing.T) {
	const workers, runs = 4, 50
	h := &fakeHive{}
	pd, err := New(Config{Program: threadedProg(t), ID: "p", Hive: h, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				if _, err := pd.RunOnce([]int64{int64(w*runs + i)}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := pd.Flush(); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := make(map[uint64]bool, len(h.traces))
	for _, tr := range h.traces {
		if seen[tr.Seq] {
			t.Fatalf("seq %d shipped twice", tr.Seq)
		}
		seen[tr.Seq] = true
	}
	if len(seen) != workers*runs {
		t.Fatalf("shipped %d traces, want %d", len(seen), workers*runs)
	}
}

// discardHive takes every batch and keeps nothing, as a HiveClient may.
type discardHive struct{ *fakeHive }

func (discardHive) SubmitTraces([]*trace.Trace) error { return nil }

// TestAllocsPodRun holds a warm pod with three guards installed to its
// budget: RunOnce allocates no more than Finish does to build a trace over a
// recycled one (its input digest). Guard evaluation, the collector, the
// machine, the pending batch and the trace itself cost nothing, because the
// pod recycles every batch its backend took.
func TestAllocsPodRun(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	p, _ := proggen.MustGenerate(proggen.CorpusSpec(1, 0))
	syscalls := &prog.DeterministicSyscalls{Seed: 9}
	for _, input := range [][]int64{{205}, {42}} {
		t.Run(fmt.Sprint(input[0]), func(t *testing.T) {
			h := discardHive{&fakeHive{fixes: guardFixes(3, []int64{5}), version: 3}}
			pd, err := New(Config{Program: p, ID: "p", Hive: h, Syscalls: syscalls})
			if err != nil {
				t.Fatal(err)
			}
			if err := pd.SyncFixes(); err != nil {
				t.Fatal(err)
			}
			effective := input
			if input[0] == 205 {
				effective = []int64{5} // the first guard fires
			}
			col := trace.NewCollector(p, trace.CaptureExternalOnly, 0, 1)
			m, err := prog.NewMachine(p, prog.Config{Input: effective, Syscalls: syscalls, Observer: col})
			if err != nil {
				t.Fatal(err)
			}
			res := m.Run()
			shipped := make([]*trace.Trace, 1)
			budget := testing.AllocsPerRun(100, func() {
				shipped[0] = col.Finish("p", 0, res, effective, trace.PrivacyHashed, "")
				trace.Recycle(shipped)
			})

			for i := 0; i < 64; i++ { // warm: the collector, the machine, the batch and its traces
				if _, err := pd.RunOnce(input); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(256, func() {
				if _, err := pd.RunOnce(input); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("RunOnce: %.0f allocations per run; budget, Finish over a recycled trace: %.0f", got, budget)
			if got > budget {
				t.Errorf("RunOnce allocates %.0f times per run, Finish over a recycled trace %.0f", got, budget)
			}
			if st := pd.Stats(); input[0] == 205 && st.GuardedRuns == 0 {
				t.Fatal("the guard never fired")
			}
		})
	}
}

// ackStreamer is a SealedStreamer that encodes nothing and acknowledges
// every frame, reusing its own slices: what remains of a drain is the pod's
// and its buffer's share.
type ackStreamer struct {
	discardHive
	sealed []SealedBatch
	acked  []bool
}

func (a *ackStreamer) SealTraceBatches(programID string, batches [][]*trace.Trace) []SealedBatch {
	a.sealed = a.sealed[:0]
	for _, b := range batches {
		a.sealed = append(a.sealed, SealedBatch{ProgramID: programID, Count: len(b)})
	}
	return a.sealed
}

func (a *ackStreamer) SubmitSealed(sealed []SealedBatch) ([]bool, error) {
	a.acked = a.acked[:0]
	for range sealed {
		a.acked = append(a.acked, true)
	}
	return a.acked, nil
}

// TestAllocsPodDrain holds a warm pod behind a BufferedClient to its budget:
// one cycle of drainRuns runs (four flushes) and one sealed drain allocates
// one input digest per run, plus perDrain for the drain itself (its chunk
// list and the sealed frames it appends). Each trace is shipped by the pod
// and copied by the buffer over recycled traces, and both are recycled.
func TestAllocsPodDrain(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	const drainRuns, perDrain = 64, 2
	p, _ := proggen.MustGenerate(proggen.CorpusSpec(1, 0))
	buf := NewBufferedFor(&ackStreamer{discardHive: discardHive{&fakeHive{}}}, p.ID)
	pd, err := New(Config{Program: p, ID: "p", Hive: buf, Syscalls: &prog.DeterministicSyscalls{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	input := []int64{42}
	cycles := 0
	cycle := func() {
		cycles++
		for i := 0; i < drainRuns; i++ {
			if _, err := pd.RunOnce(input); err != nil {
				t.Fatal(err)
			}
		}
		if err := buf.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	got := testing.AllocsPerRun(50, cycle)
	t.Logf("one cycle of %d runs and a drain: %.0f allocations", drainRuns, got)
	if got > drainRuns+perDrain {
		t.Errorf("%d runs and a drain allocate %.0f times, want at most %d: one digest per run and %d per drain",
			drainRuns, got, drainRuns+perDrain, perDrain)
	}
	if n := buf.Pending(); n != 0 {
		t.Fatalf("%d traces left queued after the drain", n)
	}
	if st := pd.Stats(); st.TracesUploaded != int64(cycles*drainRuns) {
		t.Fatalf("uploaded %d traces, want %d", st.TracesUploaded, cycles*drainRuns)
	}
}

// blockingHive holds FixesSince until release closes, so syncs overlap.
type blockingHive struct {
	*fakeHive
	entered chan struct{}
	release chan struct{}
}

func (b *blockingHive) FixesSince(programID string, version int) ([]fix.Fix, int, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.fakeHive.FixesSince(programID, version)
}

// TestConcurrentSyncInstallsOnce overlaps two fix syncs that fetch the same
// fixes: each guard and signature is installed once.
func TestConcurrentSyncInstallsOnce(t *testing.T) {
	sig := deadlock.Signature{Edges: []deadlock.SignatureEdge{{PC: 1, LockID: 0}}}
	fixes := append(guardFixes(1, []int64{5}), fix.Fix{ID: 2, Kind: fix.KindDeadlockImmunity, Deadlock: &sig})
	h := &blockingHive{
		fakeHive: &fakeHive{fixes: fixes, version: 2},
		entered:  make(chan struct{}),
		release:  make(chan struct{}),
	}
	pd, err := New(Config{Program: buildCrashy(t), ID: "p", Hive: h})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- pd.SyncFixes() }()
	}
	<-h.entered
	<-h.entered
	close(h.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	pd.mu.Lock()
	guards, sigs := len(pd.guards), len(pd.sigs)
	pd.mu.Unlock()
	if guards != 1 || sigs != 1 {
		t.Fatalf("installed %d guards and %d signatures, want 1 and 1", guards, sigs)
	}
	if v := pd.Stats().FixVersion; v != 2 {
		t.Fatalf("fix version = %d, want 2", v)
	}
}
