package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/prog"
)

// randomTrace draws an arbitrary trace with every field class populated at
// random — including empty sections, failure outcomes, and varied privacy
// levels — so the columnar codec is exercised across the whole field space.
func randomTrace(rng *rand.Rand, programID string) *Trace {
	pods := []string{"pod-a", "pod-b", "pod-c"}
	modes := []CaptureMode{CaptureFull, CaptureExternalOnly, CaptureSampled, CaptureCoordinated}
	outcomes := []prog.Outcome{prog.OutcomeOK, prog.OutcomeCrash, prog.OutcomeAssertFail, prog.OutcomeDeadlock}
	privacies := []PrivacyLevel{PrivacyRaw, PrivacyBucketed, PrivacyHashed, PrivacyOpaque}
	t := &Trace{
		ProgramID:   programID,
		PodID:       pods[rng.Intn(len(pods))],
		Seq:         rng.Uint64() >> rng.Intn(40),
		Mode:        modes[rng.Intn(len(modes))],
		SampleRate:  uint32(rng.Intn(1 << 16)),
		SamplePhase: uint32(rng.Intn(8)),
		SampleK:     uint32(rng.Intn(8)),
		Outcome:     outcomes[rng.Intn(len(outcomes))],
		FaultPC:     int32(rng.Intn(2000) - 1),
		AssertID:    int64(rng.Intn(100) - 1),
		Steps:       rng.Int63n(1 << 20),
		Privacy:     privacies[rng.Intn(len(privacies))],
	}
	for i := rng.Intn(20); i > 0; i-- {
		t.Branches = append(t.Branches, BranchEvent{ID: int32(rng.Intn(512)), Taken: rng.Intn(2) == 1})
	}
	for i := rng.Intn(5); i > 0; i-- {
		t.Syscalls = append(t.Syscalls, SyscallEvent{
			TID: int32(rng.Intn(4)), Sysno: rng.Int63n(300) - 5, Ret: rng.Int63n(1000) - 500,
		})
	}
	for i := rng.Intn(5); i > 0; i-- {
		t.Locks = append(t.Locks, LockEvent{
			TID: int32(rng.Intn(4)), LockID: int32(rng.Intn(8)), PC: int32(rng.Intn(500)), Acquire: rng.Intn(2) == 1,
		})
	}
	if t.Outcome == prog.OutcomeDeadlock {
		for i := 1 + rng.Intn(3); i > 0; i-- {
			t.Deadlock = append(t.Deadlock, DeadlockWait{
				TID: int32(rng.Intn(4)), PC: int32(rng.Intn(500)), Wants: int32(rng.Intn(8)),
			})
		}
	}
	if rng.Intn(2) == 1 {
		t.ScheduleHash = fmt.Sprintf("sched-%x", rng.Uint32())
	}
	t.InputDigest = fmt.Sprintf("digest-%x", rng.Uint32())
	switch t.Privacy {
	case PrivacyRaw:
		for i := 1 + rng.Intn(4); i > 0; i-- {
			t.Input = append(t.Input, rng.Int63n(512)-128)
		}
	case PrivacyBucketed:
		for i := 1 + rng.Intn(4); i > 0; i-- {
			t.InputBuckets = append(t.InputBuckets, rng.Int63n(64)-8)
		}
	}
	return t
}

// TestPropColumnarMatchesV2 is the codec-compatibility property: for random
// batches, columnar encode → view → materialize must reproduce exactly what
// the per-trace v2 codec's decode(encode(t)) round trip produces, trace by
// trace — the two codecs are interchangeable representations of the same
// batch.
func TestPropColumnarMatchesV2(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 200; round++ {
		n := rng.Intn(12)
		batch := make([]*Trace, n)
		for i := range batch {
			batch[i] = randomTrace(rng, "prog-prop")
		}
		enc, err := EncodeBatch("prog-prop", batch)
		if err != nil {
			t.Fatalf("round %d: encode: %v", round, err)
		}
		v, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		if v.Len() != n {
			t.Fatalf("round %d: view has %d traces, want %d", round, v.Len(), n)
		}
		for i, orig := range batch {
			viaV2, err := Decode(Encode(orig))
			if err != nil {
				t.Fatalf("round %d trace %d: v2 round trip: %v", round, i, err)
			}
			got := v.Materialize(i)
			if !reflect.DeepEqual(got, viaV2) {
				t.Fatalf("round %d trace %d:\ncolumnar %+v\nv2       %+v", round, i, got, viaV2)
			}
			// Field accessors agree with the materialized trace.
			if v.PodID(i) != orig.PodID || v.Seq(i) != orig.Seq || v.Mode(i) != orig.Mode ||
				v.Outcome(i) != orig.Outcome || v.Privacy(i) != orig.Privacy ||
				v.FaultPC(i) != orig.FaultPC || v.AssertID(i) != orig.AssertID ||
				v.Steps(i) != orig.Steps || v.NumBranches(i) != len(orig.Branches) {
				t.Fatalf("round %d trace %d: accessor mismatch vs %+v", round, i, orig)
			}
			if sig := string(v.FailureSignature(nil, i)); sig != orig.FailureSignature() {
				t.Fatalf("round %d trace %d: signature %q, want %q", round, i, sig, orig.FailureSignature())
			}
			if got := v.Branches(i); !slices.Equal(got, viaV2.Branches) || cap(got) != len(got) {
				t.Fatalf("round %d trace %d: branches %v (cap %d), want %v", round, i, got, cap(got), viaV2.Branches)
			}
		}
		v.Release()
	}
}

// TestBatchCodecRejectsMixedPrograms pins the header invariant: one batch,
// one program.
func TestBatchCodecRejectsMixedPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomTrace(rng, "prog-a")
	b := randomTrace(rng, "prog-b")
	if _, err := EncodeBatch("prog-a", []*Trace{a, b}); err == nil {
		t.Fatal("mixed-program batch encoded without error")
	}
}

// TestBatchCodecEmptyBatch pins that a zero-trace batch round-trips (the
// wire permits it; the hive treats it as a no-op).
func TestBatchCodecEmptyBatch(t *testing.T) {
	enc, err := EncodeBatch("", nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	if v.Len() != 0 || v.ProgramID() != "" {
		t.Fatalf("empty batch decoded to %d traces program %q", v.Len(), v.ProgramID())
	}
}

// TestBatchDecodeRejectsCorruption flips every byte of a valid encoding and
// truncates at every length; DecodeBatch must either reject the mutation or
// decode something internally consistent — never panic, never over-read —
// and it must accept exactly what the reference validation accepts.
func TestBatchDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	batch := []*Trace{randomTrace(rng, "prog-corrupt"), randomTrace(rng, "prog-corrupt")}
	enc, err := EncodeBatch("prog-corrupt", batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x41
		checkAgainstReference(t, mut)
		checkAgainstReference(t, enc[:i])
	}
}

// refValidateBatch is the validation pass as it stood before the branch
// column: indexBatch, then every section of every trace walked through
// checkEvents with one skipper call per event. DecodeBatch must fail exactly
// when it does.
func refValidateBatch(buf []byte) error {
	v, err := indexBatch(buf)
	if err != nil {
		return err
	}
	defer v.Release()
	var d decoder
	refCheckBranch := func(d *decoder) { d.uvarint() }
	for i := 0; i < v.n; i++ {
		for _, c := range []struct {
			sec, minBytes int
			one           func(*decoder)
		}{
			{secBranches, 1, refCheckBranch},
			{secSyscalls, 3, checkSyscall},
			{secLocks, 4, checkLock},
			{secDeadlock, 3, checkDeadlock},
			{secInput, 1, checkVarint},
			{secInputBuckets, 1, checkVarint},
		} {
			if err := v.checkEvents(&d, c.sec, i, c.minBytes, c.one); err != nil {
				return err
			}
		}
	}
	return nil
}

// refBranches decodes trace i's branch slab one uvarint at a time, the way
// the view's accessor did before the branch column.
func refBranches(v *BatchView, i int) []BranchEvent {
	d := &decoder{buf: v.slab(secBranches, i)}
	out := make([]BranchEvent, v.NumBranches(i))
	for k := range out {
		raw := d.uvarint()
		out[k] = BranchEvent{ID: int32(raw >> 1), Taken: raw&1 == 1}
	}
	return out
}

// checkAgainstReference holds DecodeBatch on data to the reference: it fails
// exactly when refValidateBatch fails, and every accepted trace's Branches
// holds NumBranches events, capped, equal to refBranches. Whatever decodes
// also materializes.
func checkAgainstReference(t *testing.T, data []byte) *BatchView {
	t.Helper()
	refErr := refValidateBatch(data)
	v, err := DecodeBatch(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("DecodeBatch error %v, reference error %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	for i := 0; i < v.Len(); i++ {
		got := v.Branches(i)
		if len(got) != v.NumBranches(i) || cap(got) != len(got) {
			t.Fatalf("trace %d: Branches has len %d cap %d, NumBranches %d", i, len(got), cap(got), v.NumBranches(i))
		}
		if want := refBranches(v, i); !slices.Equal(got, want) {
			t.Fatalf("trace %d: Branches %v, reference %v", i, got, want)
		}
		_ = v.Materialize(i)
	}
	return v
}

// FuzzBatchCodec feeds arbitrary bytes to DecodeBatch, which must accept
// exactly what the reference validation accepts and decode every accepted
// trace's branches as the reference does (checkAgainstReference); anything
// that decodes must materialize, re-encode, and decode again to the same
// traces (decode is a normalizing projection onto valid batches).
func FuzzBatchCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 4; n++ {
		batch := make([]*Trace, n)
		for i := range batch {
			batch[i] = randomTrace(rng, "prog-fuzz")
		}
		enc, err := EncodeBatch("prog-fuzz", batch)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{batchVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := checkAgainstReference(t, data)
		if v == nil {
			return
		}
		defer v.Release()
		traces := materialized(v)
		re, err := AppendBatch(nil, v.ProgramID(), traces)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		v2, err := DecodeBatch(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		defer v2.Release()
		if !reflect.DeepEqual(materialized(v2), traces) {
			t.Fatal("re-encoded batch decodes differently")
		}
	})
}

// materialized builds every trace of the view.
func materialized(v *BatchView) []*Trace {
	out := make([]*Trace, v.Len())
	for i := range out {
		out[i] = v.Materialize(i)
	}
	return out
}

// TestBatchViewBytesAreInput pins the zero-copy journal contract: the bytes
// a view exposes are the decode input itself, not a copy.
func TestBatchViewBytesAreInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	enc, err := EncodeBatch("prog-bytes", []*Trace{randomTrace(rng, "prog-bytes")})
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	if !bytes.Equal(v.Bytes(), enc) || &v.Bytes()[0] != &enc[0] {
		t.Fatal("view bytes are not the input buffer")
	}
}

// TestBatchDecodeRejectsLengthOverflow pins the wraparound guard: section
// lengths near 2^64 must be rejected, not wrapped past the slab bounds
// check into non-monotonic offsets (which would panic accessors). Found by
// review of the original per-iteration check.
func TestBatchDecodeRejectsLengthOverflow(t *testing.T) {
	var buf []byte
	buf = append(buf, batchVersion)
	buf = appendString(buf, "p")       // programID
	buf = binary.AppendUvarint(buf, 1) // pod count
	buf = appendString(buf, "pod")     // pod dictionary
	buf = binary.AppendUvarint(buf, 2) // n = 2 traces
	buf = append(buf, 0, 0)            // pod index column
	buf = append(buf, 1, 1)            // mode column
	buf = append(buf, 1, 1)            // outcome column
	buf = append(buf, 3, 3)            // privacy column
	for i := 0; i < 3; i++ {           // sampleRate/Phase/K columns
		buf = append(buf, 0, 0)
	}
	buf = append(buf, 0, 0)                       // seq column (abs, delta)
	buf = append(buf, 0, 0)                       // faultPC
	buf = append(buf, 0, 0)                       // assertID
	buf = append(buf, 0, 0)                       // steps
	buf = append(buf, 0, 0)                       // branch counts
	buf = binary.AppendUvarint(buf, 16)           // branch len[0]
	buf = binary.AppendUvarint(buf, ^uint64(0)-7) // branch len[1]: wraps total to 8
	buf = append(buf, make([]byte, 64)...)        // padding "slab" bytes

	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("DecodeBatch panicked on overflowing lengths: %v", r)
		}
	}()
	if v, err := DecodeBatch(buf); err == nil {
		for i := 0; i < v.Len(); i++ {
			_ = v.Materialize(i)
		}
		v.Release()
		t.Fatal("batch with wrapping section lengths decoded without error")
	}
}
