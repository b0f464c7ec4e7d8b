// Package cbi implements the Cooperative Bug Isolation baseline the paper
// credits as inspiration (§5, ref [18], Liblit et al.): predicates (branch
// directions) are sparsely sampled across the user community, reported
// centrally, and statistically ranked to *localize* bugs. CBI diagnoses but
// — as the paper notes — "does not diagnose bugs nor generate proofs or
// hints for fixing the bugs" beyond localization; E6 uses it as the
// mid-point between WER and SoftBorg. E6 reads only the aggregator's
// counts; the Liblit ranking over them lives beside the tests that check
// that the counts localize a bug.
package cbi

import (
	"sync"

	"repro/internal/trace"
)

// Predicate is a branch direction: the unit CBI scores.
type Predicate struct {
	BranchID int32
	Taken    bool
}

type counts struct {
	trueFail, trueSucc int64
	obsFail, obsSucc   int64
}

// Aggregator is the central CBI server.
type Aggregator struct {
	mu       sync.Mutex
	preds    map[Predicate]*counts
	failures int64
	runs     int64
}

// NewAggregator creates an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{preds: make(map[Predicate]*counts)}
}

// Ingest consumes one (typically sampled) trace: every recorded branch
// event is an observed predicate; its direction is the predicate value.
func (a *Aggregator) Ingest(tr *trace.Trace) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs++
	failed := tr.Outcome.IsFailure()
	if failed {
		a.failures++
	}
	// A branch site observed in this run contributes one observation for
	// each direction-predicate at that site and one truth for the taken
	// direction.
	seen := make(map[Predicate]bool, len(tr.Branches)*2)
	for _, be := range tr.Branches {
		for _, taken := range [2]bool{false, true} {
			p := Predicate{BranchID: be.ID, Taken: taken}
			if !seen[p] {
				seen[p] = true
				c := a.pred(p)
				if failed {
					c.obsFail++
				} else {
					c.obsSucc++
				}
			}
		}
		truth := Predicate{BranchID: be.ID, Taken: be.Taken}
		c := a.pred(truth)
		if failed {
			c.trueFail++
		} else {
			c.trueSucc++
		}
	}
}

func (a *Aggregator) pred(p Predicate) *counts {
	c, ok := a.preds[p]
	if !ok {
		c = &counts{}
		a.preds[p] = c
	}
	return c
}

// Stats summarizes the aggregator.
type Stats struct {
	Runs       int64
	Failures   int64
	Predicates int
}

// Stats returns a snapshot.
func (a *Aggregator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{Runs: a.runs, Failures: a.failures, Predicates: len(a.preds)}
}
