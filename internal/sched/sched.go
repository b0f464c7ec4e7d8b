// Package sched provides thread schedulers for the prog VM: seeded random
// interleavings (a population of users naturally samples schedules), and a
// systematic preemption-bounded enumerator used by the hive's guided
// exploration (paper §3.3: "there may be certain thread interleavings that are rare in
// practice ... SoftBorg instructs some of the pods to guide their program
// copies toward those thread schedules").
package sched

import (
	"repro/internal/prog"
	"repro/internal/stats"
)

// Random picks uniformly among runnable threads with preemption probability
// Preempt (otherwise it sticks with the previous thread when possible).
// Seeded, hence reproducible; different seeds model different users'
// machines and loads.
type Random struct {
	rng     *stats.RNG
	preempt float64
	last    int
}

var _ prog.Scheduler = (*Random)(nil)

// NewRandom creates a seeded random scheduler. preempt in [0,1] is the
// probability of a context switch at each step; 1 means uniform at every
// step.
func NewRandom(seed uint64, preempt float64) *Random {
	return &Random{rng: stats.NewRNG(seed), preempt: preempt, last: -1}
}

// Pick implements prog.Scheduler.
func (r *Random) Pick(step int64, runnable []int) int {
	choice := -1
	if r.last >= 0 && !r.rng.Bool(r.preempt) {
		for _, tid := range runnable {
			if tid == r.last {
				choice = tid
				break
			}
		}
	}
	if choice < 0 {
		choice = runnable[r.rng.Intn(len(runnable))]
	}
	r.last = choice
	return choice
}
