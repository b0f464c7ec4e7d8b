package hive

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/trace"
)

// captureTrace runs p once on input under a full-capture collector and
// returns the resulting trace, attributed to podID.
func captureTrace(t *testing.T, p *prog.Program, podID string, input []int64, privacy trace.PrivacyLevel) *trace.Trace {
	t.Helper()
	col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
	m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	return col.Finish(podID, 0, res, input, privacy, "fleet")
}

// TestSingleFlightFixSynthesis hammers one brand-new failure signature from
// many goroutines at once. The hive must elect exactly one synthesizer:
// one fix minted, one epoch bump, no duplicate standing-proof wipes — the
// duplicate-fix race the global-mutex hive had when synthesis ran outside
// the lock.
func TestSingleFlightFixSynthesis(t *testing.T) {
	p := buildCrashy(t)
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	traces := make([]*trace.Trace, goroutines)
	for i := range traces {
		// Same crashing input everywhere: every trace carries the same
		// (outcome @ fault site) signature, from a distinct pod.
		traces[i] = captureTrace(t, p, fmt.Sprintf("pod-%d", i), []int64{105}, trace.PrivacyHashed)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(tr *trace.Trace) {
			defer wg.Done()
			<-start
			errs <- h.SubmitTraces([]*trace.Trace{tr})
		}(traces[i])
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.FixCount != 1 {
		t.Errorf("fix count = %d, want exactly 1 (duplicate synthesis)", st.FixCount)
	}
	if st.Epoch != 1 {
		t.Errorf("epoch = %d, want exactly 1 bump", st.Epoch)
	}
	if len(st.Failures) != 1 {
		t.Fatalf("failure records = %+v, want 1 signature", st.Failures)
	}
	rec := st.Failures[0]
	if rec.Count != goroutines {
		t.Errorf("count = %d, want %d (every trace must still be recorded)", rec.Count, goroutines)
	}
	if rec.Pods != goroutines {
		t.Errorf("pods = %d, want %d", rec.Pods, goroutines)
	}
	if !rec.Fixed {
		t.Error("signature not marked fixed")
	}
	if st.Ingested != goroutines {
		t.Errorf("ingested = %d, want %d", st.Ingested, goroutines)
	}
}

// TestConcurrentSubmitAcrossProgramsAndModes drives SubmitTraces from many
// goroutines against several programs at once, mixing capture modes:
// full-capture crashers (raw privacy, feeding known-good harvesting) and
// raw-privacy external-only traces of a second program, which take its lock
// to harvest known-good inputs and reconstruct outside it, submitted from
// several goroutines in racing order. Run under -race this is the sharding
// regression test.
func TestConcurrentSubmitAcrossProgramsAndModes(t *testing.T) {
	crashy := buildCrashy(t)

	// A loop-free program for the external-only traffic.
	cb := prog.NewBuilder("good-conc", 1)
	for i := 0; i < 5; i++ {
		skip := cb.NewLabel()
		cb.Input(0, 0)
		cb.BrImm(0, prog.CmpGT, int64(40*i+20), skip)
		cb.AddImm(1, 1, 1)
		cb.Bind(skip)
	}
	cb.Halt()
	goodProg := cb.MustBuild()

	h := New("fleet")
	for _, p := range []*prog.Program{crashy, goodProg} {
		if err := h.RegisterProgram(p); err != nil {
			t.Fatal(err)
		}
	}

	const (
		crashyPods = 4
		runsPerPod = 40
		goodInputs = 8
		goodPods   = 3
	)

	// Pre-build the known-good traces: every input from every pod.
	goodTraces := make([]*trace.Trace, 0, goodInputs*goodPods)
	for f := 0; f < goodInputs; f++ {
		input := []int64{int64(10 + 30*f)}
		for gp := 0; gp < goodPods; gp++ {
			col := trace.NewCollector(goodProg, trace.CaptureExternalOnly, 0, 1)
			m, err := prog.NewMachine(goodProg, prog.Config{Input: input, Observer: col})
			if err != nil {
				t.Fatal(err)
			}
			res := m.Run()
			goodTraces = append(goodTraces, col.Finish(fmt.Sprintf("gpod-%d", gp), uint64(f), res, input, trace.PrivacyRaw, "fleet"))
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, crashyPods+goodPods)

	// Crashy pods: raw privacy, inputs sweeping through the crash zone.
	for i := 0; i < crashyPods; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pd, err := pod.New(pod.Config{
				Program: crashy, ID: fmt.Sprintf("cr-%d", i), Hive: h,
				Capture: trace.CaptureFull, Privacy: trace.PrivacyRaw,
				Salt: "fleet", Seed: uint64(i + 1), BatchSize: 4,
			})
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < runsPerPod; r++ {
				if _, err := pd.RunOnce([]int64{int64((r * 13) % 128)}); err != nil {
					errs <- err
					return
				}
			}
			errs <- pd.Flush()
		}(i)
	}

	// Known-good traces: one goroutine per pod, so every input's traces
	// arrive from different goroutines in racing order.
	for gp := 0; gp < goodPods; gp++ {
		wg.Add(1)
		go func(gp int) {
			defer wg.Done()
			for i, tr := range goodTraces {
				if i%goodPods != gp {
					continue
				}
				if err := h.SubmitTraces([]*trace.Trace{tr}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(gp)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	crSt, err := h.ProgramStats(crashy.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(crashyPods * runsPerPod); crSt.Ingested != want {
		t.Errorf("crashy ingested = %d, want %d", crSt.Ingested, want)
	}
	// The sweep hits the single crash zone [100,110): one signature, one fix.
	if len(crSt.Failures) != 1 || crSt.FixCount != 1 || crSt.Epoch != 1 {
		t.Errorf("crashy: failures=%d fixes=%d epoch=%d, want 1/1/1", len(crSt.Failures), crSt.FixCount, crSt.Epoch)
	}

	goodSt, err := h.ProgramStats(goodProg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(goodInputs * goodPods); goodSt.Ingested != want {
		t.Errorf("known-good ingested = %d, want %d", goodSt.Ingested, want)
	}
	st, err := h.state(goodProg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(st.knownGoodSnapshot()); n != goodInputs*goodPods {
		t.Errorf("harvested %d known-good inputs, want %d", n, goodInputs*goodPods)
	}
}

// TestBatchGroupingAcrossPrograms submits one mixed batch touching several
// programs and verifies per-program bookkeeping survives the group-by
// ingestion path.
func TestBatchGroupingAcrossPrograms(t *testing.T) {
	a := buildCrashy(t)
	bld := prog.NewBuilder("clean-b", 1)
	bld.Input(0, 0)
	bld.Halt()
	b := bld.MustBuild()

	h := New("fleet")
	for _, p := range []*prog.Program{a, b} {
		if err := h.RegisterProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	batch := []*trace.Trace{
		captureTrace(t, a, "p1", []int64{5}, trace.PrivacyHashed),
		captureTrace(t, b, "p2", []int64{7}, trace.PrivacyHashed),
		captureTrace(t, a, "p1", []int64{105}, trace.PrivacyHashed), // crash
		captureTrace(t, b, "p2", []int64{9}, trace.PrivacyHashed),
		captureTrace(t, a, "p3", []int64{105}, trace.PrivacyHashed), // same signature again
	}
	if err := h.SubmitTraces(batch); err != nil {
		t.Fatal(err)
	}
	aSt, _ := h.ProgramStats(a.ID)
	bSt, _ := h.ProgramStats(b.ID)
	if aSt.Ingested != 3 || bSt.Ingested != 2 {
		t.Errorf("ingested a=%d b=%d, want 3/2", aSt.Ingested, bSt.Ingested)
	}
	if aSt.FixCount != 1 || aSt.Epoch != 1 {
		t.Errorf("a fixes=%d epoch=%d, want 1/1 (in-batch duplicate signature)", aSt.FixCount, aSt.Epoch)
	}
	if len(aSt.Failures) != 1 || aSt.Failures[0].Count != 2 || aSt.Failures[0].Pods != 2 {
		t.Errorf("a failures = %+v", aSt.Failures)
	}
	if bSt.FixCount != 0 || len(bSt.Failures) != 0 {
		t.Errorf("clean program got failures/fixes: %+v", bSt)
	}
}

// TestSubmitTracesAllOrNothing pins the retry contract: a batch naming an
// unregistered program is rejected before ANY group is applied, so clients
// that re-queue failed batches (pod.Flush, pod.BufferedClient.Drain) cannot
// double-ingest the groups that would otherwise already have landed.
func TestSubmitTracesAllOrNothing(t *testing.T) {
	p := buildCrashy(t)
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	good := captureTrace(t, p, "p1", []int64{5}, trace.PrivacyHashed)
	batch := []*trace.Trace{good, {ProgramID: "ghost"}}
	if err := h.SubmitTraces(batch); err == nil {
		t.Fatal("batch with unknown program accepted")
	}
	st, _ := h.ProgramStats(p.ID)
	if st.Ingested != 0 {
		t.Fatalf("rejected batch partially applied: ingested = %d, want 0", st.Ingested)
	}
	// Re-submitting after registration fixes the batch exactly once.
	if err := h.SubmitTraces([]*trace.Trace{good}); err != nil {
		t.Fatal(err)
	}
	st, _ = h.ProgramStats(p.ID)
	if st.Ingested != 1 {
		t.Fatalf("retry ingested = %d, want 1", st.Ingested)
	}
}
