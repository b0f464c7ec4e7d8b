// Package wer implements the Windows Error Reporting–style baseline the
// paper positions SoftBorg against (§5, ref [11]): post-mortem crash
// reports only, bucketed centrally by failure signature, with human triage
// and no automated fixes. Comparing E6's failure-rate curves against this
// baseline isolates the value of (a) recycling *successful* executions and
// (b) closing the loop with distributed fixes.
package wer

import (
	"sync"

	"repro/internal/trace"
)

// Bucket aggregates one crash signature, WER-style.
type Bucket struct {
	// Signature is the bucketing key (outcome @ fault site), the analogue
	// of WER's (program, fault address, stack hash).
	Signature string
	// Count is the number of reports.
	Count int64
	// Pods is the number of distinct machines that reported.
	Pods int
	// FirstSeen and LastSeen are report indices (logical time).
	FirstSeen, LastSeen int64
}

// Collector is the central crash-report service.
type Collector struct {
	mu      sync.Mutex
	buckets map[string]*Bucket
	pods    map[string]map[string]bool
	reports int64
	dropped int64
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{
		buckets: make(map[string]*Bucket),
		pods:    make(map[string]map[string]bool),
	}
}

// Ingest consumes one execution report. WER only ever sees failures: OK
// executions are dropped on the floor — the information waste the paper's
// title refers to.
func (c *Collector) Ingest(tr *trace.Trace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !tr.Outcome.IsFailure() {
		c.dropped++
		return
	}
	c.reports++
	sig := tr.FailureSignature()
	b, ok := c.buckets[sig]
	if !ok {
		b = &Bucket{Signature: sig, FirstSeen: c.reports}
		c.buckets[sig] = b
		c.pods[sig] = make(map[string]bool)
	}
	b.Count++
	b.LastSeen = c.reports
	if !c.pods[sig][tr.PodID] {
		c.pods[sig][tr.PodID] = true
		b.Pods = len(c.pods[sig])
	}
}

// Stats summarizes the collector.
type Stats struct {
	Buckets       int
	Reports       int64
	DroppedOK     int64
	DistinctCrash int
}

// Stats returns a snapshot.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Buckets:       len(c.buckets),
		Reports:       c.reports,
		DroppedOK:     c.dropped,
		DistinctCrash: len(c.buckets),
	}
}
