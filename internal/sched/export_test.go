package sched

import "repro/internal/prog"

// Explored returns how many schedules have been issued.
func (e *Enumerator) Explored() int { return e.explored }

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
