package pod

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/prog"
	"repro/internal/trace"
)

// recordingClient captures copies of SubmitTraces batches (the caller
// recycles what it sent) and can be told to fail.
type recordingClient struct {
	batches [][]*trace.Trace
	fail    bool
}

func (r *recordingClient) SubmitTraces(traces []*trace.Trace) error {
	if r.fail {
		return errors.New("backend down")
	}
	r.batches = append(r.batches, cloneAll(traces))
	return nil
}

func cloneAll(traces []*trace.Trace) []*trace.Trace {
	out := make([]*trace.Trace, len(traces))
	for i, tr := range traces {
		out[i] = tr.Clone()
	}
	return out
}
func (r *recordingClient) FixesSince(string, int) ([]fix.Fix, int, error) { return nil, 7, nil }
func (r *recordingClient) Guidance(string, int) ([]guidance.TestCase, error) {
	return []guidance.TestCase{{ProgramID: "x"}}, nil
}

func TestBufferedClientDefersAndDrainsInOrder(t *testing.T) {
	backend := &recordingClient{}
	bc := NewBufferedFor(backend, "a")

	t1 := &trace.Trace{ProgramID: "a", Seq: 1}
	t2 := &trace.Trace{ProgramID: "a", Seq: 2}
	t3 := &trace.Trace{ProgramID: "a", Seq: 3}
	if err := bc.SubmitTraces([]*trace.Trace{t1, t2}); err != nil {
		t.Fatal(err)
	}
	if err := bc.SubmitTraces([]*trace.Trace{t3}); err != nil {
		t.Fatal(err)
	}
	if len(backend.batches) != 0 {
		t.Fatalf("backend saw %d batches before drain", len(backend.batches))
	}
	if bc.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", bc.Pending())
	}

	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(backend.batches) != 1 || len(backend.batches[0]) != 3 {
		t.Fatalf("drain batches = %+v", backend.batches)
	}
	for i, want := range []uint64{1, 2, 3} {
		if backend.batches[0][i].Seq != want {
			t.Errorf("drain order[%d] = %d, want %d", i, backend.batches[0][i].Seq, want)
		}
	}
	if bc.Pending() != 0 {
		t.Errorf("pending after drain = %d", bc.Pending())
	}
	// Empty drain is a no-op.
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(backend.batches) != 1 {
		t.Errorf("empty drain reached the backend")
	}
}

func TestBufferedClientRequeuesOnBackendFailure(t *testing.T) {
	backend := &recordingClient{fail: true}
	bc := NewBufferedFor(backend, "a")
	if err := bc.SubmitTraces([]*trace.Trace{{ProgramID: "a", Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := bc.Drain(); err == nil {
		t.Fatal("drain against a down backend must error")
	}
	if bc.Pending() != 1 {
		t.Fatalf("pending after failed drain = %d, want requeued 1", bc.Pending())
	}
	backend.fail = false
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(backend.batches) != 1 || backend.batches[0][0].Seq != 1 {
		t.Fatalf("recovered drain = %+v", backend.batches)
	}
}

func TestBufferedClientPassesThrough(t *testing.T) {
	backend := &recordingClient{}
	bc := NewBufferedFor(backend, "a")
	if _, v, err := bc.FixesSince("a", 0); err != nil || v != 7 {
		t.Errorf("FixesSince = %d, %v", v, err)
	}
	cases, err := bc.Guidance("a", 1)
	if err != nil || len(cases) != 1 {
		t.Errorf("Guidance = %+v, %v", cases, err)
	}
}

// sealRecorder is a SealedStreamer that records copies of the batches it is
// asked to seal and acknowledges everything.
type sealRecorder struct {
	recordingClient
	sealed [][][]*trace.Trace // one entry per SealTraceBatches call
}

func (s *sealRecorder) SealTraceBatches(programID string, batches [][]*trace.Trace) []SealedBatch {
	kept := make([][]*trace.Trace, len(batches))
	for i, b := range batches {
		kept[i] = cloneAll(b)
	}
	s.sealed = append(s.sealed, kept)
	out := make([]SealedBatch, len(batches))
	for i, b := range batches {
		out[i] = SealedBatch{ProgramID: programID, Count: len(b)}
	}
	return out
}

func (s *sealRecorder) SubmitSealed(sealed []SealedBatch) ([]bool, error) {
	accepted := make([]bool, len(sealed))
	for i := range accepted {
		accepted[i] = true
	}
	return accepted, nil
}

func TestBufferedForStreamsChunks(t *testing.T) {
	backend := &sealRecorder{}
	bc := NewBufferedFor(backend, "prog-a")
	n := streamChunk*2 + 5
	queued := make([]*trace.Trace, n)
	for i := range queued {
		queued[i] = &trace.Trace{ProgramID: "prog-a", Seq: uint64(i)}
	}
	if err := bc.SubmitTraces(queued); err != nil {
		t.Fatal(err)
	}
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(backend.sealed) != 1 {
		t.Fatalf("sealed drains = %d, want 1", len(backend.sealed))
	}
	batches := backend.sealed[0]
	if len(batches) != 3 || len(batches[0]) != streamChunk || len(batches[2]) != 5 {
		t.Fatalf("chunking = %d batches (first %d, last %d)", len(batches), len(batches[0]), len(batches[len(batches)-1]))
	}
	// Order across chunks is preserved.
	seq := uint64(0)
	for _, b := range batches {
		for _, tr := range b {
			if tr.Seq != seq {
				t.Fatalf("order broken at seq %d (got %d)", seq, tr.Seq)
			}
			seq++
		}
	}
}

// flakyBackend is an in-process backend that takes exactly one submission
// and then fails, once.
type flakyBackend struct {
	recordingClient
	calls int
}

func (f *flakyBackend) SubmitTraces(traces []*trace.Trace) error {
	f.calls++
	if f.calls == 2 {
		return errors.New("backend refused the second chunk")
	}
	return f.recordingClient.SubmitTraces(traces)
}

// TestBufferedForRequeuesOnlyUnackedTail pins the partial-failure contract
// of the in-process route: after the backend refuses a chunk mid-drain,
// only the unaccepted tail is re-queued, so the retry delivers every trace
// exactly once.
func TestBufferedForRequeuesOnlyUnackedTail(t *testing.T) {
	backend := &flakyBackend{}
	bc := NewBufferedFor(backend, "prog-a")
	n := streamChunk + 10
	queued := make([]*trace.Trace, n)
	for i := range queued {
		queued[i] = &trace.Trace{ProgramID: "prog-a", Seq: uint64(i)}
	}
	if err := bc.SubmitTraces(queued); err != nil {
		t.Fatal(err)
	}
	if err := bc.Drain(); err == nil {
		t.Fatal("drain over a refusing backend must error")
	}
	if got := bc.Pending(); got != 10 {
		t.Fatalf("pending after partial drain = %d, want the 10 unaccepted", got)
	}
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]int)
	total := 0
	for _, b := range backend.batches {
		for _, tr := range b {
			seen[tr.Seq]++
			total++
		}
	}
	if total != n {
		t.Fatalf("delivered %d traces, want %d", total, n)
	}
	for seq, c := range seen {
		if c != 1 {
			t.Fatalf("seq %d delivered %d times", seq, c)
		}
	}
	if len(backend.batches) != 2 || len(backend.batches[0]) != streamChunk {
		t.Fatalf("bound buffer submitted %d batches (first %d traces), want one frame's worth and then the tail", len(backend.batches), len(backend.batches[0]))
	}
}

// sealingBackend implements SealedStreamer: it seals with monotonically
// increasing tags and records every payload submitted, failing the first
// submit call outright.
type sealingBackend struct {
	recordingClient
	nextSeq   uint64
	submits   int
	delivered []string // payloads acknowledged, in order
	seenTags  map[string]int
}

func (s *sealingBackend) SealTraceBatches(programID string, batches [][]*trace.Trace) []SealedBatch {
	out := make([]SealedBatch, len(batches))
	for i, b := range batches {
		s.nextSeq++
		out[i] = SealedBatch{
			ProgramID: programID,
			Count:     len(b),
			Payload:   []byte(fmt.Sprintf("frame-seq-%d(n=%d)", s.nextSeq, len(b))),
		}
	}
	return out
}

func (s *sealingBackend) SubmitSealed(sealed []SealedBatch) ([]bool, error) {
	s.submits++
	accepted := make([]bool, len(sealed))
	if s.seenTags == nil {
		s.seenTags = make(map[string]int)
	}
	for i, sb := range sealed {
		s.seenTags[string(sb.Payload)]++
		// First submit: ack only the first frame, then die.
		if s.submits == 1 && i > 0 {
			return accepted, errors.New("link died")
		}
		accepted[i] = true
		s.delivered = append(s.delivered, string(sb.Payload))
	}
	if s.submits == 1 && len(sealed) == 1 {
		return accepted, nil
	}
	return accepted, nil
}

// TestBufferedForSealedTagsSurviveDrains pins the cross-drain contract at
// the unit level: frames sealed for a failed drain are re-submitted on the
// next drain with their original payloads (tags included) — never re-sealed
// with fresh sequence numbers.
func TestBufferedForSealedTagsSurviveDrains(t *testing.T) {
	backend := &sealingBackend{}
	bc := NewBufferedFor(backend, "prog-a")
	n := 2*streamChunk + 10 // three frames
	queued := make([]*trace.Trace, n)
	for i := range queued {
		queued[i] = &trace.Trace{ProgramID: "prog-a", Seq: uint64(i)}
	}
	if err := bc.SubmitTraces(queued); err != nil {
		t.Fatal(err)
	}
	if err := bc.Drain(); err == nil {
		t.Fatal("first drain over a dying backend must error")
	}
	if got, want := bc.Pending(), streamChunk+10; got != want {
		t.Fatalf("pending after failed drain = %d, want %d sealed-but-unacked traces", got, want)
	}
	if backend.nextSeq != 3 {
		t.Fatalf("sealed %d frames, want 3", backend.nextSeq)
	}
	// Second drain: the parked frames go out again, byte-identical, and no
	// new sealing happens (nothing new was queued).
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if backend.nextSeq != 3 {
		t.Fatalf("failed drain's frames were re-sealed: %d tags minted", backend.nextSeq)
	}
	if bc.Pending() != 0 {
		t.Fatalf("pending after successful drain = %d", bc.Pending())
	}
	if len(backend.delivered) != 3 {
		t.Fatalf("delivered %d frames, want 3", len(backend.delivered))
	}
	// Each tag was presented at least once and frame 2 exactly twice (once
	// on the dead link, once on the retry) — with the SAME payload.
	if backend.seenTags["frame-seq-1(n=256)"] != 1 {
		t.Fatalf("frame 1 presented %d times", backend.seenTags["frame-seq-1(n=256)"])
	}
	if backend.seenTags["frame-seq-2(n=256)"] != 2 {
		t.Fatalf("frame 2 presented %d times, want 2 (original + cross-drain resend)", backend.seenTags["frame-seq-2(n=256)"])
	}
	// New traces queued after a failure drain behind the parked frames.
	if err := bc.SubmitTraces([]*trace.Trace{{ProgramID: "prog-a", Seq: 9999}}); err != nil {
		t.Fatal(err)
	}
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if backend.nextSeq != 4 {
		t.Fatalf("new queue after healed drain sealed %d frames total, want 4", backend.nextSeq)
	}
}

// rejectingBackend rejects the middle frame of the first submit (acking
// frames around it) — the server-rejection failure mode, where a frame in
// the middle of a stream was refused while later frames were applied.
type rejectingBackend struct {
	recordingClient
	nextSeq   uint64
	submits   int
	presented []string // payloads presented across all submits, in order
}

func (s *rejectingBackend) SealTraceBatches(programID string, batches [][]*trace.Trace) []SealedBatch {
	out := make([]SealedBatch, len(batches))
	for i, b := range batches {
		s.nextSeq++
		out[i] = SealedBatch{ProgramID: programID, Count: len(b),
			Payload: []byte(fmt.Sprintf("seq-%d", s.nextSeq))}
	}
	return out
}

func (s *rejectingBackend) SubmitSealed(sealed []SealedBatch) ([]bool, error) {
	s.submits++
	accepted := make([]bool, len(sealed))
	for i, sb := range sealed {
		s.presented = append(s.presented, string(sb.Payload))
		accepted[i] = true
	}
	if s.submits == 1 && len(sealed) >= 2 {
		accepted[1] = false // server rejected frame 1; later frames ingested
		return accepted, errors.New("server rejected a batch")
	}
	return accepted, nil
}

// TestBufferedForReattemptsRejectedFrameSameTag pins the rejection path: a
// frame the server refused mid-stream is parked and re-presented under the
// SAME tag on the next drain — the backend's exact-set dedup window means
// an unapplied seq is simply applied on the retry, no re-sealing needed,
// while later frames that were applied stay dup-suppressed.
func TestBufferedForReattemptsRejectedFrameSameTag(t *testing.T) {
	backend := &rejectingBackend{}
	bc := NewBufferedFor(backend, "prog-a")
	n := 2*streamChunk + 10 // three frames
	queued := make([]*trace.Trace, n)
	for i := range queued {
		queued[i] = &trace.Trace{ProgramID: "prog-a", Seq: uint64(i)}
	}
	if err := bc.SubmitTraces(queued); err != nil {
		t.Fatal(err)
	}
	if err := bc.Drain(); err == nil {
		t.Fatal("drain over a rejecting backend must error")
	}
	// Frame 1 (256 traces) was rejected: parked under its original tag.
	if got := bc.Pending(); got != streamChunk {
		t.Fatalf("pending after rejection = %d, want %d parked traces", got, streamChunk)
	}
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if backend.nextSeq != 3 {
		t.Fatalf("rejected frame was re-sealed: %d tags minted, want 3", backend.nextSeq)
	}
	want := []string{"seq-1", "seq-2", "seq-3", "seq-2"}
	if fmt.Sprint(backend.presented) != fmt.Sprint(want) {
		t.Fatalf("presented = %v, want %v (rejected frame retried with original tag)", backend.presented, want)
	}
	if bc.Pending() != 0 {
		t.Fatalf("pending after retry drain = %d", bc.Pending())
	}
}

// TestBufferedClientCopiesOnSubmit: SubmitTraces hands the traces back to
// their caller, which may mutate them or recycle them — and the free list
// then builds other traces over their memory — while the buffer still seals
// the traces as they were when submitted.
func TestBufferedClientCopiesOnSubmit(t *testing.T) {
	mk := func(seq uint64) *trace.Trace {
		return &trace.Trace{
			ProgramID: "prog-a", PodID: "pod-1", Seq: seq, Mode: trace.CaptureFull, Outcome: prog.OutcomeCrash,
			Branches: []trace.BranchEvent{{ID: 1, Taken: true}, {ID: int32(seq)}},
			Syscalls: []trace.SyscallEvent{{Sysno: 3, Ret: int64(seq)}},
			Input:    []int64{int64(seq), 9}, InputDigest: "digest", Privacy: trace.PrivacyRaw,
		}
	}
	want, err := trace.EncodeBatch("prog-a", []*trace.Trace{mk(1), mk(2), mk(3)})
	if err != nil {
		t.Fatal(err)
	}
	backend := &sealRecorder{}
	bc := NewBufferedFor(backend, "prog-a")
	sent := []*trace.Trace{mk(1), mk(2), mk(3)}
	if err := bc.SubmitTraces(sent); err != nil {
		t.Fatal(err)
	}
	sent[0].Seq = 99
	sent[0].Branches[0].Taken = false
	sent[0].Input[0] = -1
	trace.Recycle(sent[1:])
	junk := mk(77)
	junk.Branches = append(junk.Branches, trace.BranchEvent{ID: 5}, trace.BranchEvent{ID: 6})
	for i := 0; i < 8; i++ {
		_ = junk.Clone() // over the recycled traces' memory, when the free list still holds it
	}
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(backend.sealed) != 1 || len(backend.sealed[0]) != 1 {
		t.Fatalf("sealed %d drains, want one of one frame", len(backend.sealed))
	}
	got, err := trace.EncodeBatch("prog-a", backend.sealed[0][0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the drain sealed other traces than the ones submitted")
	}
}
