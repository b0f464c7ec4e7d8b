package hive

import (
	"testing"

	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/race"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fullFrame captures a 256-trace full-capture frame of one benign program,
// shaped like the benchmark's bulk traffic: Zipf-drawn inputs, so hot paths
// repeat and rare ones turn up, and every trace at PrivacyHashed, so the
// apply does no bookkeeping and its cost is decode and merge.
func fullFrame(tb testing.TB) (*prog.Program, []byte) {
	tb.Helper()
	p, _, err := proggen.Generate(proggen.Spec{Seed: 7100, Depth: 6, Loops: 2, Syscalls: 1, NumInputs: 2, DetBranches: 10})
	if err != nil {
		tb.Fatal(err)
	}
	z := stats.NewZipf(stats.NewRNG(1), 256, 1.1)
	col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
	traces := make([]*trace.Trace, 256)
	for i := range traces {
		input := make([]int64, p.NumInputs)
		for j := range input {
			input[j] = int64(z.Next())
		}
		col.Reset()
		m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
		if err != nil {
			tb.Fatal(err)
		}
		traces[i] = col.Finish("pod-apply", uint64(i), m.Run(), input, trace.PrivacyHashed, "fleet")
	}
	enc, err := trace.EncodeBatch(p.ID, traces)
	if err != nil {
		tb.Fatal(err)
	}
	return p, enc
}

// warmApply returns a hive whose tree has merged enc once, and the body that
// decodes enc and applies it again — what ingest does per frame.
func warmApply(tb testing.TB) func() {
	tb.Helper()
	p, enc := fullFrame(tb)
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		tb.Fatal(err)
	}
	apply := func() {
		v, err := trace.DecodeBatch(enc)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := h.SubmitColumnarSession("", 0, v); err != nil {
			tb.Fatal(err)
		}
		v.Release()
	}
	apply()
	return apply
}

// BenchmarkApplyFrame decodes and applies one 256-trace full-capture frame
// to a warm tree: the validation pass, the branch column and 256 merges that
// almost all repeat a known path — the per-frame work of bulk ingest and of
// journal replay alike.
func BenchmarkApplyFrame(b *testing.B) {
	apply := warmApply(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/trace")
}

// TestAllocsApplyFrame guards BenchmarkApplyFrame's body: decoding and
// applying a frame to a warm tree allocates a constant per frame and nothing
// per trace. The budget, 5, is what the same body cost when the apply decoded
// each trace's branches into a reused path buffer of its own scratch, before
// the view kept a branch column.
func TestAllocsApplyFrame(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	apply := warmApply(t)
	avg := testing.AllocsPerRun(50, apply)
	if avg > 5 {
		t.Fatalf("decoding and applying a 256-trace frame to a warm tree costs %.1f allocs; want <= 5", avg)
	}
}
