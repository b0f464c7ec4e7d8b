// Package trace defines execution by-products (paper §3.1): branch
// bit-vectors, syscall summaries, lock/schedule events and outcome labels,
// together with a capture collector (the pod-side instrumentation sink), the
// one binary trace encoding (the columnar batch of AppendBatch and
// DecodeBatch, which the wire, the journal, the archive and checkpoints all
// carry), and the privacy filter that controls how much end-user data leaves
// the machine.
package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/prog"
)

// CaptureMode selects which branch events the pod records.
type CaptureMode uint8

// Capture modes (paper §3.1). Full records every branch. ExternalOnly
// records only input-dependent branches — the deterministic remainder is
// reconstructible by the hive, so each trace is already a full path. Sampled
// records a seeded pseudo-random subset (cooperative bug isolation style, ref
// [18]), merged at the granularity it was recorded at. The paper's third
// option, sites partitioned across pods and narrowed back into one path by
// the hive, is not offered: it ships more bytes per fully merged path than
// external-only capture (EXPERIMENTS.md E41). The batch codec refuses any
// other mode byte.
const (
	CaptureFull CaptureMode = iota + 1
	CaptureExternalOnly
	CaptureSampled
)

var captureNames = map[CaptureMode]string{
	CaptureFull:         "full",
	CaptureExternalOnly: "external-only",
	CaptureSampled:      "sampled",
}

// String returns the mode label.
func (m CaptureMode) String() string {
	if s, ok := captureNames[m]; ok {
		return s
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// BranchEvent is one dynamic branch decision.
type BranchEvent struct {
	// ID is the static branch id within the program.
	ID int32
	// Taken reports whether the branch jumped to its target.
	Taken bool
}

// String renders the event as "#id+"/"#id-".
func (b BranchEvent) String() string {
	if b.Taken {
		return fmt.Sprintf("#%d+", b.ID)
	}
	return fmt.Sprintf("#%d-", b.ID)
}

// SyscallEvent summarizes one system call.
type SyscallEvent struct {
	TID   int32
	Sysno int64
	Ret   int64
}

// LockEvent records a lock acquisition or release.
type LockEvent struct {
	TID     int32
	LockID  int32
	PC      int32
	Acquire bool
}

// DeadlockWait is one edge of a reported deadlock cycle: the thread blocked
// at PC wanting lock Wants.
type DeadlockWait struct {
	TID   int32
	PC    int32
	Wants int32
}

// Trace is one execution's by-products, as shipped from pod to hive.
type Trace struct {
	// ProgramID identifies the program (content hash).
	ProgramID string
	// PodID identifies the reporting pod.
	PodID string
	// Seq is the pod-local trace sequence number.
	Seq uint64
	// Mode is the capture mode the pod used.
	Mode CaptureMode
	// SampleRate is the per-branch recording probability for CaptureSampled
	// (stored as rate*65536), zero otherwise.
	SampleRate uint32

	// Branches is the ordered dynamic branch record. Under
	// CaptureExternalOnly it contains only input-dependent branches; under
	// CaptureSampled, a pseudo-random subset.
	Branches []BranchEvent
	// Syscalls summarizes external events in call order.
	Syscalls []SyscallEvent
	// Locks records the lock acquisition/release sequence.
	Locks []LockEvent
	// ScheduleHash digests the thread-schedule decisions (multi-threaded
	// programs only).
	ScheduleHash string

	// Outcome labels the execution.
	Outcome prog.Outcome
	// FaultPC and AssertID locate failures (-1 when not applicable).
	FaultPC  int32
	AssertID int64
	// Deadlock carries the wait cycle for OutcomeDeadlock.
	Deadlock []DeadlockWait
	// Steps is the executed instruction count (the "cost" of the run).
	Steps int64

	// InputDigest is a salted hash of the input vector; always present.
	InputDigest string
	// Input is the raw input vector; present only at PrivacyRaw.
	Input []int64
	// InputBuckets is the coarsened input vector; present at
	// PrivacyBucketed.
	InputBuckets []int64
	// Privacy records the level the pod applied before shipping.
	Privacy PrivacyLevel
}

// FailureSignature groups failures that are "the same bug" for aggregation:
// outcome kind plus fault location. This mirrors the granularity at which
// the hive synthesizes fixes.
func (t *Trace) FailureSignature() string {
	if !t.Outcome.IsFailure() {
		return ""
	}
	return fmt.Sprintf("%s@%d#%d", t.Outcome, t.FaultPC, t.AssertID)
}

// Clone returns a deep copy. Like Finish it takes the copy from the free
// list and appends into the capacity the copy kept from its previous use, so
// an empty slice of t may come back empty rather than nil.
func (t *Trace) Clone() *Trace {
	c := newTrace()
	branches, syscalls, locks := c.Branches[:0], c.Syscalls[:0], c.Locks[:0]
	deadlock, input, buckets := c.Deadlock[:0], c.Input[:0], c.InputBuckets[:0]
	*c = *t
	c.Branches = append(branches, t.Branches...)
	c.Syscalls = append(syscalls, t.Syscalls...)
	c.Locks = append(locks, t.Locks...)
	c.Deadlock = append(deadlock, t.Deadlock...)
	c.Input = append(input, t.Input...)
	c.InputBuckets = append(buckets, t.InputBuckets...)
	return c
}

// freeTraces is the free list Finish and Clone take traces from and Recycle
// hands them back to. It is shared by every pod in the process, not kept per
// pod: a fleet that replaces its pods (a restarted cmd/pod, a benchmark
// cycling its workers) keeps the memory its retired pods shipped.
var freeTraces = sync.Pool{New: func() any { return new(Trace) }}

func newTrace() *Trace { return freeTraces.Get().(*Trace) }

// Recycle hands traces back to the free list Finish and Clone draw from, and
// nils every entry of the slice. The caller must hold the only references to
// them: a trace recycled while anything still reads it, or any of its slices,
// is overwritten by the next Finish or Clone. A pod recycles a batch once its
// backend's SubmitTraces has returned (pod.HiveClient keeps nothing), and a
// pod.BufferedClient recycles its queued copies once they are sealed or
// acknowledged. Traces a caller keeps are simply never recycled.
func Recycle(traces []*Trace) {
	for i, t := range traces {
		if t != nil {
			freeTraces.Put(t)
		}
		traces[i] = nil
	}
}

// ProgramBatch is the traces of one program within a mixed batch.
type ProgramBatch struct {
	ProgramID string
	Traces    []*Trace
}

// GroupByProgram splits a batch by ProgramID: programs in order of first
// appearance, arrival order within a program. A batch frame names its program
// once, so this is the cut every caller holding loose traces makes before
// encoding them.
func GroupByProgram(traces []*Trace) []ProgramBatch {
	var out []ProgramBatch
	at := make(map[string]int, 1)
	for _, tr := range traces {
		i, ok := at[tr.ProgramID]
		if !ok {
			i = len(out)
			at[tr.ProgramID] = i
			out = append(out, ProgramBatch{ProgramID: tr.ProgramID})
		}
		out[i].Traces = append(out[i].Traces, tr)
	}
	return out
}

// DigestInput computes the salted input digest used in Trace.InputDigest:
// the first 12 bytes of SHA-256 over the salt and the little-endian input,
// in hex. It allocates only the string it returns while the salt and input
// fit the stack buffer; a longer message spills to the heap and hashes the
// same.
func DigestInput(salt string, input []int64) string {
	var stack [128]byte
	msg := append(stack[:0], salt...)
	for _, v := range input {
		msg = binary.LittleEndian.AppendUint64(msg, uint64(v))
	}
	sum := sha256.Sum256(msg)
	var out [24]byte
	hex.Encode(out[:], sum[:12])
	return string(out[:])
}
