package hive

import (
	"testing"
	"time"

	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/race"
	"repro/internal/trace"
)

// viewOf encodes traces as one columnar frame and indexes it.
func viewOf(t testing.TB, programID string, traces []*trace.Trace) *trace.BatchView {
	t.Helper()
	enc, err := trace.EncodeBatch(programID, traces)
	if err != nil {
		t.Fatal(err)
	}
	view, err := trace.DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// submitSession hands traces to h the way every caller reaches it: encoded
// once as a columnar frame, as a view tagged (session, seq).
func submitSession(t testing.TB, h *Hive, session string, seq uint64, programID string, traces []*trace.Trace) (bool, error) {
	t.Helper()
	view := viewOf(t, programID, traces)
	defer view.Release()
	return h.SubmitColumnarSession(session, seq, view)
}

// TestHostileStepCountCannotWedgeIngest: a trace's step count is an
// unvalidated number off the wire, and reconstruction derives its replay
// fuel from it while ingest holds the program's checkpoint gate. A hung
// execution claiming 2^60 steps must cost a bounded replay — not 2^61
// steps of VM with the program's checkpoints and ingest parked behind it.
func TestHostileStepCountCannotWedgeIngest(t *testing.T) {
	p, bugs, err := proggen.Generate(proggen.Spec{
		Seed: 77, Depth: 3, DetBranches: 2, TriggerWidth: 16,
		Bugs: []proggen.BugKind{proggen.BugHang},
	})
	if err != nil {
		t.Fatal(err)
	}
	input := []int64{bugs[0].TriggerLo}
	col := trace.NewCollector(p, trace.CaptureExternalOnly, 0, 1)
	m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col, MaxSteps: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	tr := col.Finish("pod-hostile", 1, m.Run(), input, trace.PrivacyHashed, "fleet")
	if tr.Outcome != prog.OutcomeHang {
		t.Fatalf("trigger input ended %s, want a hang", tr.Outcome)
	}
	tr.Steps = 1 << 60

	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	view := viewOf(t, p.ID, []*trace.Trace{tr})
	defer view.Release()
	done := make(chan error, 1)
	go func() {
		_, err := h.SubmitColumnarSession("sess", 1, view)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("ingest of a trace claiming 2^60 steps is still replaying after a minute: reconstruction fuel trusts the pod")
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 1 || st.Reconstructed != 1 {
		t.Fatalf("ingested=%d reconstructed=%d, want 1 and 1: the clamped replay still reaches the hang", st.Ingested, st.Reconstructed)
	}
}

// TestAllocsReingestExternalOnly guards the hit path's point: a frame of
// external-only traces the program has expanded before is ingested without
// materializing a trace or creating a machine — allocations per frame are
// a small constant, not a multiple of the frame's 256 traces.
func TestAllocsReingestExternalOnly(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	p, _, err := proggen.Generate(proggen.Spec{Seed: 78, Depth: 5, Loops: 1, Syscalls: 1, DetBranches: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	traces := make([]*trace.Trace, 256)
	for i := range traces {
		traces[i] = captureIn(t, p, trace.CaptureExternalOnly, []int64{int64(i)})
	}
	view := viewOf(t, p.ID, traces)
	defer view.Release()
	ingest := func() {
		if _, err := h.SubmitColumnarSession("", 0, view); err != nil {
			t.Fatal(err)
		}
	}
	ingest() // first sight: every distinct trace replays once
	first, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if first.Reconstructed != 256 || first.Reconstructor.Misses == 0 {
		t.Fatalf("first frame: reconstructed=%d misses=%d, want 256 reconstructed through misses", first.Reconstructed, first.Reconstructor.Misses)
	}

	avg := testing.AllocsPerRun(20, ingest)
	if avg > 4 {
		t.Fatalf("re-ingesting a 256-trace frame of already-seen external-only traces costs %.1f allocs; want <= 4 (pool-churn slack over 0)", avg)
	}
	after, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Reconstructor.Misses != first.Reconstructor.Misses {
		t.Fatalf("repeat frames re-executed the program: misses %d -> %d", first.Reconstructor.Misses, after.Reconstructor.Misses)
	}
	if want := first.Reconstructor.Hits + 21*256; after.Reconstructor.Hits != want {
		t.Fatalf("hits = %d, want %d (every repeat lookup answered from memory)", after.Reconstructor.Hits, want)
	}
}
