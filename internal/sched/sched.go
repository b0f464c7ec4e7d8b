// Package sched provides thread schedulers for the prog VM: deterministic
// round-robin, seeded random interleavings (a population of users naturally
// samples schedules), and a systematic preemption-bounded enumerator used
// by the hive's guided exploration
// (paper §3.3: "there may be certain thread interleavings that are rare in
// practice ... SoftBorg instructs some of the pods to guide their program
// copies toward those thread schedules").
package sched

import (
	"repro/internal/prog"
	"repro/internal/stats"
)

// RoundRobin runs each runnable thread for Quantum consecutive steps before
// rotating. It is fully deterministic.
type RoundRobin struct {
	// Quantum is the steps per turn; zero means 1.
	Quantum int64

	cur  int
	used int64
}

var _ prog.Scheduler = (*RoundRobin)(nil)

// Pick implements prog.Scheduler.
func (r *RoundRobin) Pick(step int64, runnable []int) int {
	q := r.Quantum
	if q <= 0 {
		q = 1
	}
	// Keep running the current thread while it remains runnable and has
	// quantum left.
	for _, tid := range runnable {
		if tid == r.cur && r.used < q {
			r.used++
			return tid
		}
	}
	// Rotate to the next runnable thread after cur.
	next := runnable[0]
	for _, tid := range runnable {
		if tid > r.cur {
			next = tid
			break
		}
	}
	r.cur = next
	r.used = 1
	return next
}

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
