package trace

import (
	"repro/internal/prog"
	"repro/internal/stats"
)

// Collector is the pod-side instrumentation sink: it implements
// prog.Observer and accumulates one Trace per execution. A pod owns one
// collector and lends it to one run at a time: Reseed before the run, Finish
// after it, Reset before the next, so the event buffers are allocated once.
type Collector struct {
	program *prog.Program
	mode    CaptureMode
	rate    float64
	rng     stats.RNG

	branches    []BranchEvent
	syscalls    []SyscallEvent
	locks       []LockEvent
	schedule    []uint8
	recordSched bool
}

var _ prog.Observer = (*Collector)(nil)

// NewCollector creates a collector for the given program and capture mode.
// rate is the per-branch recording probability for CaptureSampled (ignored
// otherwise); seed drives the sampling decisions so sampling across a pod
// fleet is reproducible.
func NewCollector(p *prog.Program, mode CaptureMode, rate float64, seed uint64) *Collector {
	return &Collector{program: p, mode: mode, rate: rate, rng: *stats.NewRNG(seed)}
}

// Reseed restarts the sampling stream as NewCollector(…, seed) starts it.
func (c *Collector) Reseed(seed uint64) { c.rng = *stats.NewRNG(seed) }

// RecordSchedule enables capturing the schedule decision sequence (needed
// for multi-threaded programs so the hive can distinguish interleavings).
func (c *Collector) RecordSchedule() *Collector { c.recordSched = true; return c }

// Reset clears accumulated events for the next execution.
func (c *Collector) Reset() {
	c.branches = c.branches[:0]
	c.syscalls = c.syscalls[:0]
	c.locks = c.locks[:0]
	c.schedule = c.schedule[:0]
}

// Branch implements prog.Observer.
func (c *Collector) Branch(tid, branchID int, taken bool) {
	switch c.mode {
	case CaptureExternalOnly:
		if !c.program.InputDependent(branchID) {
			return
		}
	case CaptureSampled:
		if !c.rng.Bool(c.rate) {
			return
		}
	}
	c.branches = append(c.branches, BranchEvent{ID: int32(branchID), Taken: taken})
}

// LockAcquire implements prog.Observer.
func (c *Collector) LockAcquire(tid, lockID, pc int) {
	c.locks = append(c.locks, LockEvent{TID: int32(tid), LockID: int32(lockID), PC: int32(pc), Acquire: true})
}

// LockRelease implements prog.Observer.
func (c *Collector) LockRelease(tid, lockID, pc int) {
	c.locks = append(c.locks, LockEvent{TID: int32(tid), LockID: int32(lockID), PC: int32(pc)})
}

// Syscall implements prog.Observer.
func (c *Collector) Syscall(tid int, sysno, arg, ret int64) {
	c.syscalls = append(c.syscalls, SyscallEvent{TID: int32(tid), Sysno: sysno, Ret: ret})
}

// Schedule implements prog.Observer.
func (c *Collector) Schedule(tid int) {
	if c.recordSched {
		c.schedule = append(c.schedule, uint8(tid))
	}
}

// Finish assembles the Trace for a completed execution. The caller supplies
// identity, the machine result, the input, and the privacy level to apply.
// The collector can be Reset and reused afterwards.
//
// The trace comes from the package free list (see Recycle): every field is
// overwritten, and the event and input slices are appended into the capacity
// the trace kept from its previous use, so a warm pod that recycles what it
// ships allocates only the input digest. A slice left empty by this run may
// be empty rather than nil.
func (c *Collector) Finish(podID string, seq uint64, res prog.Result, input []int64, level PrivacyLevel, salt string) *Trace {
	t := newTrace()
	*t = Trace{
		ProgramID:    c.program.ID,
		PodID:        podID,
		Seq:          seq,
		Mode:         c.mode,
		SampleRate:   uint32(c.rate * 65536),
		Branches:     append(t.Branches[:0], c.branches...),
		Syscalls:     append(t.Syscalls[:0], c.syscalls...),
		Locks:        append(t.Locks[:0], c.locks...),
		Outcome:      res.Outcome,
		FaultPC:      int32(res.FaultPC),
		AssertID:     res.AssertID,
		Deadlock:     t.Deadlock[:0],
		Steps:        res.Steps,
		Input:        t.Input[:0],
		InputBuckets: t.InputBuckets[:0],
	}
	for _, w := range res.DeadlockCycle {
		t.Deadlock = append(t.Deadlock, DeadlockWait{TID: int32(w.TID), PC: int32(w.PC), Wants: int32(w.Wants)})
	}
	if c.recordSched {
		t.ScheduleHash = scheduleHash(c.schedule)
	}
	ApplyPrivacy(t, input, level, salt)
	return t
}
