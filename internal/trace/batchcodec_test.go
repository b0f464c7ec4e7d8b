package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/codec/codectest"
	"repro/internal/prog"
)

// randomTrace draws an arbitrary trace with every field class populated at
// random — including empty sections, failure outcomes, and varied privacy
// levels — so the columnar codec is exercised across the whole field space.
func randomTrace(rng *rand.Rand, programID string) *Trace {
	pods := []string{"pod-a", "pod-b", "pod-c"}
	modes := []CaptureMode{CaptureFull, CaptureExternalOnly, CaptureSampled}
	outcomes := []prog.Outcome{prog.OutcomeOK, prog.OutcomeCrash, prog.OutcomeAssertFail, prog.OutcomeDeadlock}
	privacies := []PrivacyLevel{PrivacyRaw, PrivacyBucketed, PrivacyHashed, PrivacyOpaque}
	t := &Trace{
		ProgramID:  programID,
		PodID:      pods[rng.Intn(len(pods))],
		Seq:        rng.Uint64() >> rng.Intn(40),
		Mode:       modes[rng.Intn(len(modes))],
		SampleRate: uint32(rng.Intn(1 << 16)),
		Outcome:    outcomes[rng.Intn(len(outcomes))],
		FaultPC:    int32(rng.Intn(2000) - 1),
		AssertID:   int64(rng.Intn(100) - 1),
		Steps:      rng.Int63n(1 << 20),
		Privacy:    privacies[rng.Intn(len(privacies))],
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

// TestPropColumnarRoundTrip is the codec's round-trip property: for random
// batches, encode → view → materialize reproduces every trace exactly, and
// the view's accessors agree with it.
func TestPropColumnarRoundTrip(t *testing.T) {
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
			got := v.Materialize(i)
			if !reflect.DeepEqual(got, orig) {
				t.Fatalf("round %d trace %d:\n got %+v\nwant %+v", round, i, got, orig)
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
			if got := v.Branches(i); !slices.Equal(got, orig.Branches) || cap(got) != len(got) {
				t.Fatalf("round %d trace %d: branches %v (cap %d), want %v", round, i, got, cap(got), orig.Branches)
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

// refIndexBatch is indexBatch as it stood before the column loops: every
// scalar, count and length read through the latching decoder, one call per
// value per trace. indexBatch must accept exactly what it accepts and index
// it alike.
func refIndexBatch(buf []byte) (*BatchView, error) {
	if len(buf) > 1<<30 {
		// The view indexes the buffer with 32-bit offsets; real batches are
		// wire frames (≤16MB) or journal records of the same payloads.
		return nil, fmt.Errorf("%w: batch of %d bytes exceeds view limit", ErrCodec, len(buf))
	}
	d := &decoder{buf: buf}
	if v := d.byte(); v != batchVersion {
		return nil, fmt.Errorf("%w: batch version %d", ErrCodec, v)
	}
	v := &BatchView{buf: buf}
	v.programID = d.string()
	npods := int(d.uvarint())
	if err := d.checkCount(npods, 1); err != nil {
		return nil, err
	}
	if npods > 0 {
		v.pods = make([]string, npods)
		for i := range v.pods {
			v.pods[i] = d.string()
		}
	}
	n := int(d.uvarint())
	if err := d.checkCount(n, 8); err != nil {
		return nil, err
	}
	v.n = n

	sc := viewScratchPool.Get().(*viewScratch)
	v.sc = sc
	release := func() { v.Release() }

	sc.podIdx = growU32(sc.podIdx, n)
	for i := 0; i < n; i++ {
		idx := d.uvarint()
		if d.err == nil && idx >= uint64(npods) {
			release()
			return nil, fmt.Errorf("%w: pod index %d of %d", ErrCodec, idx, npods)
		}
		sc.podIdx[i] = uint32(idx)
	}
	v.mode = d.raw(n)
	v.outcome = d.raw(n)
	v.privacy = d.raw(n)
	for _, m := range v.mode {
		if mode := CaptureMode(m); mode != CaptureFull && mode != CaptureExternalOnly && mode != CaptureSampled {
			release()
			return nil, fmt.Errorf("%w: capture mode %d", ErrCodec, m)
		}
	}
	sc.sampleRate = growU32(sc.sampleRate, n)
	for i := 0; i < n; i++ {
		sc.sampleRate[i] = uint32(d.uvarint())
	}
	sc.seq = growU64(sc.seq, n)
	var prev uint64
	for i := 0; i < n; i++ {
		if i == 0 {
			prev = d.uvarint()
		} else {
			prev += uint64(d.varint())
		}
		sc.seq[i] = prev
	}
	sc.faultPC = growI32(sc.faultPC, n)
	for i := 0; i < n; i++ {
		sc.faultPC[i] = int32(d.varint())
	}
	sc.assertID = growI64(sc.assertID, n)
	for i := 0; i < n; i++ {
		sc.assertID[i] = d.varint()
	}
	sc.steps = growI64(sc.steps, n)
	for i := 0; i < n; i++ {
		sc.steps[i] = int64(d.uvarint())
	}

	for s := 0; s < numSections; s++ {
		if sectionHasCounts(s) {
			sc.counts[s] = growU32(sc.counts[s], n)
			for i := 0; i < n; i++ {
				c := d.uvarint()
				if d.err == nil && c > uint64(len(buf)) {
					release()
					return nil, fmt.Errorf("%w: implausible section count %d", ErrCodec, c)
				}
				sc.counts[s][i] = uint32(c)
			}
		}
		offs := growU32(sc.offs[s], n+1)
		total := uint64(0)
		for i := 0; i < n; i++ {
			l := d.uvarint()
			// Reject any single hostile length before summing: a length
			// near 2^64 would wrap total past the bounds check below and
			// leave offs non-monotonic (out-of-range slab slices).
			if d.err == nil && l > uint64(len(buf)) {
				release()
				return nil, fmt.Errorf("%w: implausible section length %d", ErrCodec, l)
			}
			total += l
			if d.err == nil && total > uint64(len(buf)) {
				release()
				return nil, fmt.Errorf("%w: section slab overruns buffer", ErrCodec)
			}
			offs[i+1] = uint32(total) // lengths for now; rebased below
		}
		if d.err != nil {
			release()
			return nil, d.err
		}
		base := uint32(d.pos)
		if uint64(d.pos)+total > uint64(len(buf)) {
			release()
			return nil, fmt.Errorf("%w: truncated section slab", ErrCodec)
		}
		offs[0] = base
		for i := 1; i <= n; i++ {
			offs[i] += base
		}
		d.pos += int(total)
		sc.offs[s] = offs
	}
	if d.err != nil {
		release()
		return nil, d.err
	}
	if d.pos != len(buf) {
		release()
		return nil, fmt.Errorf("%w: %d trailing batch bytes", ErrCodec, len(buf)-d.pos)
	}
	return v, nil
}

// raw consumes n raw bytes as a zero-copy column sub-slice.
func (d *decoder) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.pos+n > len(d.buf) {
		d.fail()
		return nil
	}
	out := d.buf[d.pos : d.pos+n]
	d.pos += n
	return out
}

// refValidateBatch is the validation pass as it stood before the column
// loops, the branch column and the inlined section checks: refIndexBatch,
// then every section of every trace walked through refCheckEvents with one
// skipper call per event. DecodeBatch must fail exactly when it does.
func refValidateBatch(buf []byte) error {
	v, err := refIndexBatch(buf)
	if err != nil {
		return err
	}
	defer v.Release()
	var d decoder
	for i := 0; i < v.n; i++ {
		for _, c := range []struct {
			sec, minBytes int
			one           func(*decoder)
		}{
			{secBranches, 1, func(d *decoder) { d.uvarint() }},
			{secSyscalls, 3, func(d *decoder) { d.uvarint(); d.varint(); d.varint() }},
			{secLocks, 4, func(d *decoder) { d.uvarint(); d.uvarint(); d.uvarint(); d.byte() }},
			{secDeadlock, 3, func(d *decoder) { d.uvarint(); d.uvarint(); d.uvarint() }},
			{secInput, 1, func(d *decoder) { d.varint() }},
			{secInputBuckets, 1, func(d *decoder) { d.varint() }},
		} {
			if err := refCheckEvents(v, &d, c.sec, i, c.minBytes, c.one); err != nil {
				return err
			}
		}
	}
	return nil
}

// refCheckEvents parses trace i's slab for one section through the trace
// decoder, one skipper call per event, and verifies the event count and
// byte length agree.
func refCheckEvents(v *BatchView, d *decoder, sec, i, minBytes int, one func(*decoder)) error {
	slab := v.slab(sec, i)
	count := int(v.sc.counts[sec][i])
	if count > len(slab)/minBytes {
		return fmt.Errorf("%w: section %d trace %d: %d events in %d bytes", ErrCodec, sec, i, count, len(slab))
	}
	d.buf, d.pos, d.err = slab, 0, nil
	for k := 0; k < count; k++ {
		one(d)
	}
	if d.err != nil {
		return fmt.Errorf("%w: section %d trace %d: %v", ErrCodec, sec, i, d.err)
	}
	if d.pos != len(slab) {
		return fmt.Errorf("%w: section %d trace %d: %d trailing bytes", ErrCodec, sec, i, len(slab)-d.pos)
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

// checkAgainstReference holds DecodeBatch on data to the reference: its index
// is refIndexBatch's (checkIndexAgainstReference), it fails exactly when
// refValidateBatch fails, and every accepted trace's Branches
// holds NumBranches events, capped, equal to refBranches. Whatever decodes
// also materializes.
func checkAgainstReference(t *testing.T, data []byte) *BatchView {
	t.Helper()
	checkIndexAgainstReference(t, data)
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

// checkIndexAgainstReference holds indexBatch on data to refIndexBatch: both
// accept or both refuse, a refusal wraps ErrCodec, and an accepted batch's
// header, scalar columns, counts and slab offsets are equal.
func checkIndexAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	v, err := indexBatch(data)
	ref, refErr := refIndexBatch(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("indexBatch error %v, reference error %v", err, refErr)
	}
	if err != nil {
		if !errors.Is(err, ErrCodec) {
			t.Fatalf("indexBatch refused with %v, which does not wrap ErrCodec", err)
		}
		return
	}
	defer v.Release()
	defer ref.Release()
	same := v.programID == ref.programID && slices.Equal(v.pods, ref.pods) && v.n == ref.n &&
		bytes.Equal(v.mode, ref.mode) && bytes.Equal(v.outcome, ref.outcome) && bytes.Equal(v.privacy, ref.privacy)
	a, b := v.sc, ref.sc
	n := v.n
	same = same && slices.Equal(a.podIdx[:n], b.podIdx[:n]) && slices.Equal(a.sampleRate[:n], b.sampleRate[:n]) &&
		slices.Equal(a.seq[:n], b.seq[:n]) && slices.Equal(a.faultPC[:n], b.faultPC[:n]) &&
		slices.Equal(a.assertID[:n], b.assertID[:n]) && slices.Equal(a.steps[:n], b.steps[:n])
	for s := 0; s < numSections; s++ {
		same = same && slices.Equal(a.offs[s][:n+1], b.offs[s][:n+1])
		if sectionHasCounts(s) {
			same = same && slices.Equal(a.counts[s][:n], b.counts[s][:n])
		}
	}
	if !same {
		t.Fatalf("indexBatch and refIndexBatch index % x differently", data)
	}
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
	// One trace and no pod to index, then one pod and an index past it.
	f.Add(append([]byte{batchVersion, 1, 'p', 0, 1}, make([]byte, 40)...))
	f.Add(append([]byte{batchVersion, 1, 'p', 1, 1, 'q', 1, 1}, make([]byte, 40)...))
	// The retired coordinated mode and a byte no mode ever had.
	for _, enc := range unknownModeBatches(f, rng) {
		f.Add(enc)
	}
	codectest.Fuzz(f, func(data []byte) error {
		v, err := DecodeBatch(data)
		if err == nil {
			v.Release()
		}
		return err
	},
		[]byte{batchVersion},    // the program ID's length
		[]byte{batchVersion, 0}, // the pod count
	)
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

// unknownModeBatches encodes one well-formed trace under each mode byte the
// codec refuses: 0, 4 (coordinated capture, retired with batch version 1)
// and 255.
func unknownModeBatches(t testing.TB, rng *rand.Rand) [][]byte {
	var out [][]byte
	for _, mode := range []CaptureMode{0, 4, 255} {
		tr := randomTrace(rng, "prog-mode")
		tr.Mode = mode
		enc, err := EncodeBatch("prog-mode", []*Trace{tr})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, enc)
	}
	return out
}

// TestBatchDecodeRefusesUnknownMode: a batch whose mode column holds a byte
// that is not full, external-only or sampled capture is refused with
// ErrCodec, so no consumer merges it as some mode's branches.
func TestBatchDecodeRefusesUnknownMode(t *testing.T) {
	for _, enc := range unknownModeBatches(t, rand.New(rand.NewSource(5))) {
		if v, err := DecodeBatch(enc); !errors.Is(err, ErrCodec) {
			if err == nil {
				v.Release()
			}
			t.Errorf("DecodeBatch of a batch with an unknown mode returned %v; want ErrCodec", err)
		}
		checkAgainstReference(t, enc)
	}
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
	buf = codec.AppendField(buf, "p")   // programID
	buf = binary.AppendUvarint(buf, 1)  // pod count
	buf = codec.AppendField(buf, "pod") // pod dictionary
	buf = binary.AppendUvarint(buf, 2)  // n = 2 traces
	buf = append(buf, 0, 0)             // pod index column
	buf = append(buf, 1, 1)             // mode column
	buf = append(buf, 1, 1)             // outcome column
	buf = append(buf, 3, 3)             // privacy column
	for i := 0; i < 3; i++ {            // sampleRate/Phase/K columns
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

// decoder is the reference decoder's own cursor: the latching reader the
// codec had before it shared codec.Decoder, kept apart from it so the
// equivalence tests compare two independent readers.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated at offset %d", ErrCodec, d.pos)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || d.pos >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	// Most values — lengths, counts, branch IDs, thread IDs — fit in one
	// byte.
	if d.pos < len(d.buf) && d.buf[d.pos] < 0x80 {
		v := uint64(d.buf[d.pos])
		d.pos++
		return v
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

// string compares the length with the bytes left, never d.pos+n, which a
// length near 2^63 wraps.
func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.pos) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

// checkCount guards slice allocations against hostile counts: the remaining
// bytes must be able to hold count items of at least minBytes each.
func (d *decoder) checkCount(count, minBytes int) error {
	if d.err != nil {
		return d.err
	}
	// Divide instead of multiplying: a hostile count near the int ceiling
	// must not overflow the plausibility product.
	if count < 0 || count > (len(d.buf)-d.pos)/minBytes {
		d.err = fmt.Errorf("%w: implausible count %d at offset %d", ErrCodec, count, d.pos)
		return d.err
	}
	return nil
}
