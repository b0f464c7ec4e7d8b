package sched

import "repro/internal/prog"

// Systematic enumerates thread interleavings via iterative deepening over
// scheduling decision prefixes, bounded by MaxDecisions. The hive uses it to
// steer pods toward rare interleavings deterministically: each enumeration
// index maps to one schedule.
//
// The enumeration treats every Pick call as a decision point with a branching
// factor equal to the number of runnable threads. A schedule is identified by
// the sequence of choice *indices* (not tids), which keeps the space well
// defined even when the runnable set changes across runs.
type Systematic struct {
	// choices is the decision prefix to force, as indices into the runnable
	// set at each decision point.
	choices []int
	pos     int
	// observed records the branching factor seen at each decision point, so
	// the enumerator can compute the next prefix.
	observed []int
	// fairAfter is the decision index beyond which picks rotate over the
	// runnable set instead of defaulting to index 0. Within [len(choices),
	// fairAfter) the default stays 0 so the enumerator's mixed-radix walk
	// visits every vector exactly once; beyond fairAfter (outside the
	// enumerated space) rotation guarantees fairness, so avoidance gates —
	// which rely on lock holders making progress — cannot be starved into
	// livelock by the enumeration default. Zero means "never rotate".
	fairAfter int
	// Overflowed reports that the run had more decision points than the
	// forced prefix.
	Overflowed bool
}

var _ prog.Scheduler = (*Systematic)(nil)

// NewSystematic creates a scheduler that forces the given decision prefix.
func NewSystematic(choices []int) *Systematic {
	return &Systematic{choices: append([]int(nil), choices...)}
}

// FairAfter makes decisions at index >= n rotate over the runnable set (see
// the field comment); the Enumerator sets it to its decision bound.
func (s *Systematic) FairAfter(n int) *Systematic {
	s.fairAfter = n
	return s
}

// Pick implements prog.Scheduler.
func (s *Systematic) Pick(step int64, runnable []int) int {
	idx := 0
	switch {
	case s.pos < len(s.choices):
		idx = s.choices[s.pos]
		if idx >= len(runnable) {
			idx = len(runnable) - 1
		}
	case s.fairAfter > 0 && s.pos >= s.fairAfter:
		s.Overflowed = true
		idx = s.pos % len(runnable)
	default:
		s.Overflowed = true
	}
	s.observed = append(s.observed, len(runnable))
	s.pos++
	return runnable[idx]
}

// Observed returns the branching factors recorded during the run.
func (s *Systematic) Observed() []int { return append([]int(nil), s.observed...) }

// Prefix returns the forced decision prefix.
func (s *Systematic) Prefix() []int { return append([]int(nil), s.choices...) }

// Enumerator walks the schedule space in depth-first order with a decision
// bound. Call Next to get the scheduler for the next run, then report the
// branching factors it Observed so the enumerator can advance.
type Enumerator struct {
	// MaxDecisions bounds the forced prefix length (decisions beyond it take
	// index 0), keeping the space finite.
	MaxDecisions int

	prefix   []int
	factors  []int
	done     bool
	explored int
}

// NewEnumerator creates an enumerator with the given decision bound.
func NewEnumerator(maxDecisions int) *Enumerator {
	return &Enumerator{MaxDecisions: maxDecisions}
}

// Done reports whether the space is exhausted.
func (e *Enumerator) Done() bool { return e.done }

// Next returns the scheduler for the next unexplored schedule, or nil when
// the bounded space is exhausted.
func (e *Enumerator) Next() *Systematic {
	if e.done {
		return nil
	}
	e.explored++
	return NewSystematic(e.prefix).FairAfter(e.MaxDecisions)
}

// Report feeds back the branching factors observed by the scheduler returned
// from the previous Next call, advancing the enumeration cursor.
func (e *Enumerator) Report(s *Systematic) {
	factors := s.Observed()
	if len(factors) > e.MaxDecisions {
		factors = factors[:e.MaxDecisions]
	}
	// Extend the current prefix to the full observed depth with zeros so the
	// DFS increment below explores the deepest decisions first.
	prefix := make([]int, len(factors))
	copy(prefix, e.prefix)
	// Increment the prefix like a mixed-radix counter, most-significant
	// digit first ... actually least-significant (deepest) first for DFS.
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i]+1 < factors[i] {
			prefix[i]++
			e.prefix = prefix[:i+1]
			return
		}
		// Carry: reset and move up.
	}
	e.done = true
}
