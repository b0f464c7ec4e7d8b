package trace

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/prog"
	"repro/internal/race"
)

// withEmptyAsNil returns a copy of t whose empty slices are nil: a trace
// built over a recycled one may carry an empty slice where a fresh one
// carries nil, and the two say the same.
func withEmptyAsNil(t *Trace) Trace {
	c := *t
	if len(c.Branches) == 0 {
		c.Branches = nil
	}
	if len(c.Syscalls) == 0 {
		c.Syscalls = nil
	}
	if len(c.Locks) == 0 {
		c.Locks = nil
	}
	if len(c.Deadlock) == 0 {
		c.Deadlock = nil
	}
	if len(c.Input) == 0 {
		c.Input = nil
	}
	if len(c.InputBuckets) == 0 {
		c.InputBuckets = nil
	}
	return c
}

// freshCopy is Clone without the free list: every slice newly allocated.
func freshCopy(t *Trace) *Trace {
	c := *t
	c.Branches = append([]BranchEvent(nil), t.Branches...)
	c.Syscalls = append([]SyscallEvent(nil), t.Syscalls...)
	c.Locks = append([]LockEvent(nil), t.Locks...)
	c.Deadlock = append([]DeadlockWait(nil), t.Deadlock...)
	c.Input = append([]int64(nil), t.Input...)
	c.InputBuckets = append([]int64(nil), t.InputBuckets...)
	return &c
}

// fullTrace is a trace with every field set: sampled capture, events of
// every kind, a deadlock cycle, a schedule hash, and raw input beside
// bucketed input (no privacy level ships both; a recycled trace may hold
// anything).
func fullTrace(p *prog.Program, seq uint64) *Trace {
	col := NewCollector(p, CaptureSampled, 0.75, 5).RecordSchedule()
	for i := 0; i < 24; i++ {
		col.Branch(i%2, i, i%3 == 0)
		col.Syscall(i%2, int64(i), 7, int64(-i))
		col.LockAcquire(i%2, i%4, 10+i)
		col.LockRelease(i%2, i%4, 11+i)
		col.Schedule(i % 2)
	}
	res := prog.Result{Outcome: prog.OutcomeDeadlock, Steps: 900, FaultPC: 17, AssertID: 4,
		DeadlockCycle: []prog.LockWait{{TID: 0, PC: 3, Wants: 1}, {TID: 1, PC: 9, Wants: 0}}}
	t := col.Finish("pod-stale", seq, res, []int64{300, -17, 5, 1 << 40}, PrivacyRaw, "stale-salt")
	t.InputBuckets = []int64{18, -2, 0, 1 << 36}
	return t
}

// TestFinishOverRecycledTrace: Finish and Clone over a recycled trace that
// had every field set build the trace a fresh one would, field by field
// (nil ≡ empty) and byte for byte in AppendBatch. The small trace a pod
// usually ships comes out of a big recycled one, and the big one out of the
// small.
func TestFinishOverRecycledTrace(t *testing.T) {
	p := buildBranchy(t)
	small := NewCollector(p, CaptureExternalOnly, 0, 1)
	small.Branch(0, 0, true)
	res := prog.Result{Outcome: prog.OutcomeOK, Steps: 12, FaultPC: -1, AssertID: -1}
	finishSmall := func() *Trace { return small.Finish("pod-1", 7, res, []int64{20}, PrivacyHashed, "salt") }
	wantSmall := freshCopy(finishSmall())
	wantFull := freshCopy(fullTrace(p, 3))

	check := func(what string, got, want *Trace) {
		t.Helper()
		if g, w := withEmptyAsNil(got), withEmptyAsNil(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s over a recycled trace:\n got %+v\nwant %+v", what, g, w)
		}
		gotEnc, err := AppendBatch(nil, p.ID, []*Trace{got})
		if err != nil {
			t.Fatal(err)
		}
		wantEnc, err := AppendBatch(nil, p.ID, []*Trace{want})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotEnc, wantEnc) {
			t.Fatalf("%s over a recycled trace encodes to other bytes than a fresh one", what)
		}
	}
	// reuse recycles stale, then builds n traces with build and checks each;
	// it reports how many of them reused a recycled trace.
	reuse := func(what string, stale []*Trace, build func() *Trace, want *Trace) int {
		t.Helper()
		recycled := make(map[*Trace]bool, len(stale))
		for _, tr := range stale {
			recycled[tr] = true
		}
		Recycle(stale)
		for i, tr := range stale {
			if tr != nil {
				t.Fatalf("Recycle left entry %d set", i)
			}
		}
		reused := 0
		for range stale {
			got := build()
			if recycled[got] {
				reused++
			}
			check(what, got, want)
		}
		return reused
	}

	const n = 8
	full := make([]*Trace, n)
	for i := range full {
		full[i] = fullTrace(p, uint64(i))
	}
	reused := reuse("Finish of a small trace", full, finishSmall, wantSmall)

	smalls := make([]*Trace, n)
	for i := range smalls {
		smalls[i] = finishSmall()
	}
	reused += reuse("Finish of a full trace", smalls, func() *Trace { return fullTrace(p, 3) }, wantFull)

	for i := range full {
		full[i] = fullTrace(p, uint64(i))
	}
	reused += reuse("Clone of a small trace", full, wantSmall.Clone, wantSmall)

	// The free list may drop what it is given (the race detector makes it
	// drop a share on purpose), so only a build without it must reuse.
	if !race.Enabled && reused == 0 {
		t.Fatal("no trace was built over a recycled one")
	}
}
