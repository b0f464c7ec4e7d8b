package hive

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/trace"
)

// buildTwoSiteCrashy builds a program with two distinct crash sites: inputs
// below 10 divide by zero at one PC, inputs above 200 at another — two
// failure signatures.
func buildTwoSiteCrashy(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("hot-striped", 1)
	lowLbl, highLbl, end := b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpLT, 10, lowLbl)
	b.BrImm(0, prog.CmpGT, 200, highLbl)
	b.Jmp(end)
	b.Bind(lowLbl)
	b.Const(1, 0)
	b.Div(2, 1, 1) // crash site A
	b.Jmp(end)
	b.Bind(highLbl)
	b.Const(1, 0)
	b.Div(3, 1, 1) // crash site B
	b.Bind(end)
	b.Halt()
	return b.MustBuild()
}

// TestHotProgramStripedFailures hammers a single program's failure
// bookkeeping from many goroutines through the per-program submission path:
// two signatures, every goroutine reporting both from its own pod, with
// concurrent stats and guidance readers. Run under -race this is the
// regression test for the failure bookkeeping under the program's lock; the
// counters must be exact.
func TestHotProgramStripedFailures(t *testing.T) {
	p := buildTwoSiteCrashy(t)
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const rounds = 25
	// Per-goroutine traces so distinct-pod counting is exercised too.
	lows := make([]*trace.Trace, goroutines)
	highs := make([]*trace.Trace, goroutines)
	oks := make([]*trace.Trace, goroutines)
	for g := 0; g < goroutines; g++ {
		podID := fmt.Sprintf("hot-pod-%d", g)
		lows[g] = captureTrace(t, p, podID, []int64{5}, trace.PrivacyHashed)
		highs[g] = captureTrace(t, p, podID, []int64{250}, trace.PrivacyHashed)
		oks[g] = captureTrace(t, p, podID, []int64{50}, trace.PrivacyHashed)
	}
	if lows[0].FailureSignature() == highs[0].FailureSignature() {
		t.Fatal("want two distinct signatures")
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines+2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				if err := h.SubmitTraces([]*trace.Trace{lows[g], oks[g], highs[g]}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	// Concurrent readers: stats snapshots and guidance generation must not
	// race with the writers.
	readerDone := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				select {
				case <-readerDone:
					errs <- nil
					return
				default:
				}
				if _, err := h.ProgramStats(p.ID); err != nil {
					errs <- err
					return
				}
				if _, err := h.Guidance(p.ID, 2); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	close(start)
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(readerDone)
	wg.Wait()

	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != goroutines*rounds*3 {
		t.Errorf("ingested = %d, want %d", st.Ingested, goroutines*rounds*3)
	}
	if len(st.Failures) != 2 {
		t.Fatalf("failure records = %+v, want 2 signatures", st.Failures)
	}
	for _, rec := range st.Failures {
		if rec.Count != goroutines*rounds {
			t.Errorf("%s: count = %d, want %d", rec.Signature, rec.Count, goroutines*rounds)
		}
		if rec.Pods != goroutines {
			t.Errorf("%s: pods = %d, want %d", rec.Signature, rec.Pods, goroutines)
		}
		if !rec.Fixed && !rec.InRepairLab {
			t.Errorf("%s: synthesis never concluded", rec.Signature)
		}
	}
	if st.Epoch > 2 {
		t.Errorf("epoch = %d, want at most one bump per signature", st.Epoch)
	}
}

// TestBoundBufferRejectsMismatch pins the all-or-nothing contract of the
// per-program path: a frame names its program once, so a drain holding a
// trace about another program never becomes a frame — nothing is ingested
// and the whole drain stays queued.
func TestBoundBufferRejectsMismatch(t *testing.T) {
	p := buildTwoSiteCrashy(t)
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	good := captureTrace(t, p, "pod", []int64{50}, trace.PrivacyHashed)
	stray := good.Clone()
	stray.ProgramID = "someone-else"
	buf := pod.NewBufferedFor(h, p.ID)
	if err := buf.SubmitTraces([]*trace.Trace{good, stray}); err != nil {
		t.Fatal(err)
	}
	if err := buf.Drain(); err == nil {
		t.Fatal("mismatched trace accepted")
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 0 {
		t.Errorf("ingested = %d after rejected batch, want 0", st.Ingested)
	}
	if got := buf.Pending(); got != 2 {
		t.Errorf("pending = %d after rejected drain, want both traces", got)
	}
}

// TestCheckpointUnderBookkeepingTraffic checkpoints one program in a loop
// while goroutines send it failing and raw-privacy OK traces — every part of
// the program's books at once — then recovers a second hive from the data
// dir. The recovered hive must hold the same failure records, known-good
// inputs and ingest count: a checkpoint cuts between whole batches,
// whichever of them it catches mid-flight.
func TestCheckpointUnderBookkeepingTraffic(t *testing.T) {
	p := buildTwoSiteCrashy(t)
	corpus := []*prog.Program{p}
	dir := t.TempDir()
	h, store := newDurableHive(t, dir, corpus)

	const goroutines = 8
	const rounds = 20
	const k = 2 // mid-run extras of an even goroutine
	type feed struct{ crashes, ok, extras []*trace.Trace }
	feeds := make([]feed, goroutines)
	for g := range feeds {
		podID := fmt.Sprintf("books-pod-%d", g)
		feeds[g].crashes = []*trace.Trace{
			captureTrace(t, p, podID, []int64{5}, trace.PrivacyRaw),
			captureTrace(t, p, podID, []int64{250}, trace.PrivacyHashed),
		}
		feeds[g].ok = []*trace.Trace{captureTrace(t, p, podID, []int64{int64(20 + g)}, trace.PrivacyRaw)}
		// Known-good inputs of its own, once mid-run: k from an even
		// goroutine, one from an odd one.
		for i := 0; i < k; i++ {
			if g%2 == 1 && i > 0 {
				break
			}
			feeds[g].extras = append(feeds[g].extras, captureTrace(t, p, podID, []int64{int64(60 + k*g + i)}, trace.PrivacyRaw))
		}
	}

	start, stop := make(chan struct{}), make(chan struct{})
	var senders, checkpointer sync.WaitGroup
	for g := range feeds {
		senders.Add(1)
		go func(f feed) {
			defer senders.Done()
			<-start
			for r := 0; r < rounds; r++ {
				batch := append(append([]*trace.Trace(nil), f.crashes...), f.ok...)
				if r == rounds/2 {
					batch = append(batch, f.extras...)
				}
				if err := h.SubmitTraces(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(feeds[g])
	}
	checkpoints := 0
	checkpointer.Add(1)
	go func() {
		defer checkpointer.Done()
		<-start
		for {
			if err := h.CheckpointProgram(p.ID); err != nil {
				t.Error(err)
				return
			}
			checkpoints++
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	close(start)
	senders.Wait()
	close(stop)
	checkpointer.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	h2, store2 := newDurableHive(t, dir, corpus)
	defer store2.Close()

	type failure struct {
		Signature        string
		Count            int64
		Pods             int
		Fixed, RepairLab bool
	}
	type state struct {
		Ingested  int64
		Failures  []failure
		KnownGood [][]int64
	}
	read := func(h *Hive) state {
		t.Helper()
		st, err := h.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		b := state{Ingested: st.Ingested}
		for _, rec := range st.Failures {
			b.Failures = append(b.Failures, failure{rec.Signature, rec.Count, rec.Pods, rec.Fixed, rec.InRepairLab})
		}
		ps, err := h.state(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := h.snapshotProgramMeta(ps)
		if err != nil {
			t.Fatal(err)
		}
		// Harvest order is apply order, which concurrent batches need not
		// share with journal order; the set is what recovery promises.
		b.KnownGood = snap.KnownGood
		slices.SortFunc(b.KnownGood, slices.Compare[[]int64])
		return b
	}
	t.Logf("%d checkpoints under traffic", checkpoints)
	want, got := read(h), read(h2)
	if want.Ingested != goroutines*rounds*3+goroutines/2*(k+1) {
		t.Fatalf("ingested %d traces, want %d", want.Ingested, goroutines*rounds*3+goroutines/2*(k+1))
	}
	if len(want.Failures) != 2 || len(want.KnownGood) == 0 {
		t.Fatalf("live books hold %d failure records and %d known-good inputs; want 2 and some",
			len(want.Failures), len(want.KnownGood))
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("recovered books differ after %d checkpoints under traffic:\n want %+v\n  got %+v", checkpoints, want, got)
	}
}
