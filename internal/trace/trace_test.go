package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/prog"
	"repro/internal/stats"
)

// buildBranchy returns a single-threaded program with a mix of
// input-dependent and deterministic branches plus a syscall and a lock.
func buildBranchy(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("branchy", 1).SetLocks(1)
	end := b.NewLabel()
	mid := b.NewLabel()
	b.Input(0, 0)
	b.Const(1, 3)
	b.Lock(0)
	b.Syscall(2, 5, 0)
	b.Unlock(0)
	b.BrImm(0, prog.CmpGT, 10, mid) // input-dependent
	b.BrImm(1, prog.CmpEQ, 3, end)  // deterministic (always taken)
	b.Bind(mid)
	b.BrImm(2, prog.CmpGE, 0, end) // syscall-dependent
	b.Bind(end)
	b.Halt()
	return b.MustBuild()
}

func capture(t *testing.T, p *prog.Program, mode CaptureMode, input []int64, level PrivacyLevel) *Trace {
	t.Helper()
	col := NewCollector(p, mode, 0.5, 99)
	m, err := prog.NewMachine(p, prog.Config{
		Input:    input,
		Observer: col,
		Syscalls: &prog.DeterministicSyscalls{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	return col.Finish("pod-1", 1, res, input, level, "salt")
}

func TestCollectorFullCapture(t *testing.T) {
	p := buildBranchy(t)
	tr := capture(t, p, CaptureFull, []int64{20}, PrivacyRaw)
	if tr.Outcome != prog.OutcomeOK {
		t.Fatalf("outcome = %v", tr.Outcome)
	}
	// Input 20 > 10: takes branch 0, then branch 2 (syscall >= 0).
	if len(tr.Branches) != 2 {
		t.Fatalf("branches = %v, want 2 events", tr.Branches)
	}
	if len(tr.Syscalls) != 1 {
		t.Errorf("syscalls = %d, want 1", len(tr.Syscalls))
	}
	if len(tr.Locks) != 2 {
		t.Errorf("lock events = %d, want 2", len(tr.Locks))
	}
	if tr.Input == nil || tr.Input[0] != 20 {
		t.Errorf("raw privacy should keep input, got %v", tr.Input)
	}
}

func TestCollectorExternalOnlySkipsDeterministic(t *testing.T) {
	p := buildBranchy(t)
	// Input 5: branch 0 not taken, then deterministic branch 1 (taken).
	full := capture(t, p, CaptureFull, []int64{5}, PrivacyHashed)
	ext := capture(t, p, CaptureExternalOnly, []int64{5}, PrivacyHashed)
	if len(full.Branches) != 2 {
		t.Fatalf("full branches = %v", full.Branches)
	}
	if len(ext.Branches) != 1 {
		t.Fatalf("external-only branches = %v, want 1 (deterministic dropped)", ext.Branches)
	}
	if p.InputDependent(int(ext.Branches[0].ID)) == false {
		t.Error("retained branch should be input-dependent")
	}
}

func TestCollectorReuseAfterReset(t *testing.T) {
	p := buildBranchy(t)
	col := NewCollector(p, CaptureFull, 0, 1)
	for i := 0; i < 3; i++ {
		col.Reset()
		m, err := prog.NewMachine(p, prog.Config{Input: []int64{int64(i * 20)}, Observer: col})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		tr := col.Finish("pod", uint64(i), res, []int64{int64(i * 20)}, PrivacyHashed, "s")
		if len(tr.Branches) == 0 {
			t.Fatalf("run %d: no branches", i)
		}
		if len(tr.Branches) > 2 {
			t.Fatalf("run %d: collector leaked events across runs: %v", i, tr.Branches)
		}
	}
}

func TestPathKeyDistinguishesPaths(t *testing.T) {
	p := buildBranchy(t)
	a := capture(t, p, CaptureFull, []int64{20}, PrivacyHashed)
	b := capture(t, p, CaptureFull, []int64{5}, PrivacyHashed)
	c := capture(t, p, CaptureFull, []int64{20}, PrivacyHashed)
	if a.PathKey() == b.PathKey() {
		t.Error("different paths share a key")
	}
	if a.PathKey() != c.PathKey() {
		t.Error("same path has different keys")
	}
}

func TestBits(t *testing.T) {
	tr := &Trace{Branches: []BranchEvent{
		{ID: 0, Taken: true}, {ID: 1, Taken: false}, {ID: 2, Taken: true},
		{ID: 3, Taken: true}, {ID: 4, Taken: false}, {ID: 5, Taken: false},
		{ID: 6, Taken: true}, {ID: 7, Taken: false}, {ID: 8, Taken: true},
	}}
	bits := tr.Bits()
	if len(bits) != 2 {
		t.Fatalf("bits length = %d, want 2", len(bits))
	}
	// 0b01001101 = 0x4D for the first 8, then 0x01.
	if bits[0] != 0x4D || bits[1] != 0x01 {
		t.Errorf("bits = %x, want 4d 01", bits)
	}
}

func TestFailureSignature(t *testing.T) {
	ok := &Trace{Outcome: prog.OutcomeOK}
	if ok.FailureSignature() != "" {
		t.Error("ok trace should have empty signature")
	}
	crash1 := &Trace{Outcome: prog.OutcomeCrash, FaultPC: 12, AssertID: -1}
	crash2 := &Trace{Outcome: prog.OutcomeCrash, FaultPC: 12, AssertID: -1}
	crash3 := &Trace{Outcome: prog.OutcomeCrash, FaultPC: 13, AssertID: -1}
	if crash1.FailureSignature() != crash2.FailureSignature() {
		t.Error("same fault should share signature")
	}
	if crash1.FailureSignature() == crash3.FailureSignature() {
		t.Error("different fault PCs should differ")
	}
}

// roundTrip ships tr as a one-trace columnar batch and materializes it back.
func roundTrip(tr *Trace) (*Trace, error) {
	data, err := EncodeBatch(tr.ProgramID, []*Trace{tr})
	if err != nil {
		return nil, err
	}
	v, err := DecodeBatch(data)
	if err != nil {
		return nil, err
	}
	defer v.Release()
	return v.Materialize(0), nil
}

// TestCodecRoundTrip: a captured trace at every privacy level survives the
// one trace encoding, the columnar batch.
func TestCodecRoundTrip(t *testing.T) {
	p := buildBranchy(t)
	for _, level := range []PrivacyLevel{PrivacyRaw, PrivacyBucketed, PrivacyHashed, PrivacyOpaque} {
		tr := capture(t, p, CaptureFull, []int64{33}, level)
		got, err := roundTrip(tr)
		if err != nil {
			t.Fatalf("%v: round trip: %v", level, err)
		}
		if got.PathKey() != tr.PathKey() {
			t.Errorf("%v: path key mismatch", level)
		}
		if got.ProgramID != tr.ProgramID || got.PodID != tr.PodID || got.Seq != tr.Seq {
			t.Errorf("%v: identity mismatch", level)
		}
		if got.Outcome != tr.Outcome || got.FaultPC != tr.FaultPC {
			t.Errorf("%v: outcome mismatch", level)
		}
		if got.InputDigest != tr.InputDigest || got.Privacy != tr.Privacy {
			t.Errorf("%v: privacy fields mismatch", level)
		}
		if len(got.Input) != len(tr.Input) || len(got.InputBuckets) != len(tr.InputBuckets) {
			t.Errorf("%v: input fields mismatch", level)
		}
		if len(got.Syscalls) != len(tr.Syscalls) || len(got.Locks) != len(tr.Locks) {
			t.Errorf("%v: event counts mismatch", level)
		}
	}
}

// TestDecodeRejectsCorruption: every truncation of a one-trace batch and a
// batch of an unknown version are errors, never a panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	p := buildBranchy(t)
	data, err := EncodeBatch(p.ID, []*Trace{capture(t, p, CaptureFull, []int64{33}, PrivacyHashed)})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if v, err := DecodeBatch(data[:cut]); err == nil {
			v.Release()
			t.Errorf("truncation at %d of %d decoded without error", cut, len(data))
		}
	}
	bad := append([]byte(nil), data...)
	bad[0] = 99
	if v, err := DecodeBatch(bad); err == nil {
		v.Release()
		t.Error("bad version: want error")
	}
}

func TestQuickCodecNeverPanics(t *testing.T) {
	check := func(data []byte) bool {
		if v, err := DecodeBatch(data); err == nil { // must not panic
			v.Release()
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPrivacyLevels(t *testing.T) {
	input := []int64{42}
	tr := &Trace{}

	ApplyPrivacy(tr, input, PrivacyRaw, "fleet")
	if tr.Input == nil || tr.InputBuckets != nil {
		t.Error("raw: want input, no buckets")
	}
	if n := GuessInput(tr, 256, "fleet"); n != 1 {
		t.Errorf("raw: candidates = %d, want 1", n)
	}

	ApplyPrivacy(tr, input, PrivacyBucketed, "fleet")
	if tr.Input != nil || tr.InputBuckets == nil {
		t.Error("bucketed: want buckets only")
	}
	if n := GuessInput(tr, 256, "fleet"); n != BucketWidth {
		t.Errorf("bucketed: candidates = %d, want %d", n, BucketWidth)
	}

	ApplyPrivacy(tr, input, PrivacyHashed, "fleet")
	if tr.Input != nil || tr.InputBuckets != nil {
		t.Error("hashed: want digest only")
	}
	if n := GuessInput(tr, 256, "fleet"); n != 1 {
		t.Errorf("hashed brute-force: candidates = %d, want 1", n)
	}

	ApplyPrivacy(tr, input, PrivacyOpaque, "pod-secret")
	if n := GuessInput(tr, 256, "fleet"); n != 256 {
		t.Errorf("opaque: candidates = %d, want 256 (no info)", n)
	}
}

// TestDigestInputGolden pins DigestInput to the digests the sha256.New /
// hex.EncodeToString chain produced: empty input, arity 1 to 4, an empty
// salt, and a salt longer than the stack buffer.
func TestDigestInputGolden(t *testing.T) {
	for _, g := range []struct {
		salt  string
		input []int64
		want  string
	}{
		{"fleet", nil, "5eb2ce291c7d227dd684ec83"},
		{"fleet", []int64{0}, "5f269a82922c2ba5d8f429d2"},
		{"fleet", []int64{42, -1}, "58709c802d2ce61401ad51c0"},
		{"pod-secret", []int64{1, 2, 3}, "153b2e99ef1055c14d1f0301"},
		{"fleet", []int64{math.MinInt64, math.MaxInt64, 255, -256}, "195c3fe77eeb4f45dec55603"},
		{"", []int64{7}, "aae89fc0f03e2959ae4d701a"},
		{strings.Repeat("salt", 40), []int64{1, 2, 3, 4}, "f0a985948aaaf0099f25829e"},
	} {
		if got := DigestInput(g.salt, g.input); got != g.want {
			t.Errorf("DigestInput(%q, %v) = %s, want %s", g.salt, g.input, got, g.want)
		}
	}
}

func TestPrivacyDigestStable(t *testing.T) {
	a := DigestInput("s", []int64{1, 2, 3})
	b := DigestInput("s", []int64{1, 2, 3})
	c := DigestInput("s", []int64{1, 2, 4})
	d := DigestInput("t", []int64{1, 2, 3})
	if a != b {
		t.Error("same input+salt should match")
	}
	if a == c || a == d {
		t.Error("different input or salt should differ")
	}
}

func TestSampledCaptureSubsets(t *testing.T) {
	// Program with many branches: a loop.
	b := prog.NewBuilder("loopy", 1)
	b.Input(0, 0)
	b.Const(1, 0)
	loop := b.Here()
	exit := b.NewLabel()
	b.Br(1, prog.CmpGE, 0, exit)
	b.AddImm(1, 1, 1)
	b.Jmp(loop)
	b.Bind(exit)
	b.Halt()
	p := b.MustBuild()

	runWith := func(mode CaptureMode, rate float64) int {
		col := NewCollector(p, mode, rate, 7)
		m, err := prog.NewMachine(p, prog.Config{Input: []int64{50}, Observer: col})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		tr := col.Finish("pod", 0, res, []int64{50}, PrivacyHashed, "s")
		return len(tr.Branches)
	}
	full := runWith(CaptureFull, 0)
	sampled := runWith(CaptureSampled, 0.3)
	if full != 51 {
		t.Fatalf("full = %d, want 51", full)
	}
	if sampled >= full || sampled == 0 {
		t.Errorf("sampled = %d, want strict subset of %d", sampled, full)
	}
}

func TestEncodeSizeReasonable(t *testing.T) {
	// The varint codec should beat a naive 4-bytes-per-event encoding.
	rng := stats.NewRNG(5)
	tr := &Trace{ProgramID: "p", PodID: "pod", Mode: CaptureFull}
	for i := 0; i < 1000; i++ {
		tr.Branches = append(tr.Branches, BranchEvent{ID: int32(rng.Intn(100)), Taken: rng.Bool(0.5)})
	}
	data, err := EncodeBatch(tr.ProgramID, []*Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	if size := len(data); size > 4*1000 {
		t.Errorf("encoded size = %d for 1000 events, want < 4KB", size)
	}
	got, err := roundTrip(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Branches) != 1000 {
		t.Fatalf("branches = %d", len(got.Branches))
	}
}

// TestGroupByProgram: programs come out in order of first appearance, each
// with its traces in arrival order.
func TestGroupByProgram(t *testing.T) {
	mk := func(id string, seq uint64) *Trace { return &Trace{ProgramID: id, Seq: seq} }
	got := GroupByProgram([]*Trace{mk("b", 1), mk("a", 2), mk("b", 3), mk("c", 4), mk("a", 5)})
	want := []struct {
		id   string
		seqs []uint64
	}{{"b", []uint64{1, 3}}, {"a", []uint64{2, 5}}, {"c", []uint64{4}}}
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].ProgramID != w.id || len(got[i].Traces) != len(w.seqs) {
			t.Fatalf("group %d = %s with %d traces, want %s with %d", i, got[i].ProgramID, len(got[i].Traces), w.id, len(w.seqs))
		}
		for j, seq := range w.seqs {
			if got[i].Traces[j].Seq != seq {
				t.Fatalf("group %s trace %d has seq %d, want %d", w.id, j, got[i].Traces[j].Seq, seq)
			}
		}
	}
	if GroupByProgram(nil) != nil {
		t.Fatal("no traces made a group")
	}
}
