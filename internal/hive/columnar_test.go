package hive

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/prog"
	"repro/internal/trace"
)

// captureMixed runs the crashy program under a mix of capture modes and
// privacy levels — full, external-only (reconstructable), raw-privacy OK
// runs (known-good harvest), and crashing inputs (failure aggregation +
// fix synthesis) — returning one program-homogeneous trace corpus.
func captureMixed(t *testing.T, p *prog.Program, n int) []*trace.Trace {
	t.Helper()
	modes := []trace.CaptureMode{trace.CaptureFull, trace.CaptureExternalOnly}
	out := make([]*trace.Trace, 0, n)
	for i := 0; i < n; i++ {
		mode := modes[i%len(modes)]
		privacy := trace.PrivacyHashed
		if i%3 == 0 {
			privacy = trace.PrivacyRaw
		}
		input := []int64{int64(i * 17 % 160)}
		col := trace.NewCollector(p, mode, 0, uint64(i+1))
		m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		out = append(out, col.Finish(fmt.Sprintf("pod-%d", i%4), uint64(i), res, input, privacy, "fleet"))
	}
	return out
}

// TestColumnarIngestMatchesV2 is the ingest-equivalence property behind the
// zero-copy path: feeding a batch through the view-based columnar apply
// must leave the hive in exactly the state the materialized per-trace path
// produces — same counters, same reconstruction, same failure aggregation
// and minted fixes, same execution tree. The corpus's tail repeats its
// head, so both paths also merge external-only traces from remembered
// reconstructions, not only from fresh replays.
func TestColumnarIngestMatchesV2(t *testing.T) {
	p := buildCrashy(t)
	corpus := captureMixed(t, p, 96)
	corpus = append(corpus, corpus[:32]...)

	hV2 := New("fleet")
	if err := hV2.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	hCol := New("fleet")
	if err := hCol.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}

	const chunk = 16
	for off := 0; off < len(corpus); off += chunk {
		batch := corpus[off : off+chunk]
		if err := hV2.SubmitTracesFor(p.ID, batch); err != nil {
			t.Fatal(err)
		}
		enc, err := trace.EncodeBatch(p.ID, batch)
		if err != nil {
			t.Fatal(err)
		}
		view, err := trace.DecodeBatch(enc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hCol.SubmitColumnarSession("", 0, view); err != nil {
			t.Fatal(err)
		}
		view.Release()
	}

	sV2, err := hV2.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	sCol, err := hCol.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sV2.Reconstructed == 0 || sV2.FixCount == 0 {
		t.Fatalf("corpus did not exercise reconstruction/synthesis: %+v", sV2)
	}
	if sV2.Reconstructor.Hits == 0 || sCol.Reconstructor.Hits == 0 {
		t.Fatalf("corpus did not exercise the remembered-reconstruction path: v2 %+v, columnar %+v", sV2.Reconstructor, sCol.Reconstructor)
	}
	// Failure samples are equal but distinct pointers; compare them
	// structurally, then the rest of the stats wholesale.
	if len(sV2.Failures) != len(sCol.Failures) {
		t.Fatalf("failure records: v2 %d, columnar %d", len(sV2.Failures), len(sCol.Failures))
	}
	for i := range sV2.Failures {
		a, b := sV2.Failures[i], sCol.Failures[i]
		if !reflect.DeepEqual(a.Sample, b.Sample) {
			t.Fatalf("failure %q sample differs:\nv2       %+v\ncolumnar %+v", a.Signature, a.Sample, b.Sample)
		}
		a.Sample, b.Sample = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("failure record %d differs:\nv2       %+v\ncolumnar %+v", i, a, b)
		}
	}
	sV2.Failures, sCol.Failures = nil, nil
	if !reflect.DeepEqual(sV2, sCol) {
		t.Fatalf("stats differ:\nv2       %+v\ncolumnar %+v", sV2, sCol)
	}

	// Tree equality: encoded forms are canonical.
	tV2, err := hV2.Tree(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	tCol, err := hCol.Tree(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tV2.Encode(), tCol.Encode()) {
		t.Fatal("execution trees differ between v2 and columnar ingestion")
	}

	// Minted fixes match.
	fV2, _, err := hV2.FixesSince(p.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	fCol, _, err := hCol.FixesSince(p.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fV2, fCol) {
		t.Fatalf("fixes differ:\nv2       %+v\ncolumnar %+v", fV2, fCol)
	}
}
