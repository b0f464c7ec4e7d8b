package hive

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/journal"
	"repro/internal/prog"
	"repro/internal/trace"
)

// failureStripes is the number of signature stripes in a program's failure
// table. Distinct signatures land on distinct stripes with high probability,
// so concurrent submitters hammering one hot program serialize only when
// they carry the same signature — and even then the hit counters are
// atomics, so the stripe lock protects just the signature's first-seen
// bookkeeping and synthesis state machine.
const failureStripes = 16

// failureTable is a program's striped failure aggregation: the concurrent
// counterpart of the exported FailureRecord snapshots ProgramStats serves.
type failureTable struct {
	stripes [failureStripes]failureStripe
}

type failureStripe struct {
	mu   sync.Mutex
	recs map[string]*failureRecord
}

// failureRecord aggregates one failure signature. count and pods are
// atomics (hot counters); everything else is written under the owning
// stripe's lock. signature, outcome, and sample are immutable after the
// record is published into the stripe map.
type failureRecord struct {
	signature string
	outcome   prog.Outcome
	sample    *trace.Trace

	count atomic.Int64
	pods  atomic.Int64

	podsSeen     map[string]bool
	fixed        bool
	inRepairLab  bool
	synthesizing bool
}

// stripeFor hashes a signature onto its stripe (FNV-1a).
func (t *failureTable) stripeFor(sig string) *failureStripe {
	h := uint32(2166136261)
	for i := 0; i < len(sig); i++ {
		h ^= uint32(sig[i])
		h *= 16777619
	}
	return &t.stripes[h%failureStripes]
}

// recordLazy folds one failing trace into the table and — when elect is
// set — elects at most one synthesizer per signature: the first trace to see
// a signature wins the election and must call finishSynthesis once a fix
// attempt concludes; every other trace (concurrent or later) only bumps
// counters. Journal replay records with elect false: synthesis outcomes are
// replayed from their own journal ops, never re-derived.
//
// The sample is supplied lazily: sample() runs only when the signature is
// new, so repeat failures aggregate from a batch view without materializing
// a Trace — the sample is built exactly once per signature ever.
func (t *failureTable) recordLazy(sig, podID string, outcome prog.Outcome, sample func() *trace.Trace, elect bool) (*failureRecord, bool) {
	s := t.stripeFor(sig)
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[sig]
	if !ok {
		rec = &failureRecord{signature: sig, outcome: outcome, sample: sample(), podsSeen: make(map[string]bool)}
		if s.recs == nil {
			s.recs = make(map[string]*failureRecord)
		}
		s.recs[sig] = rec
	}
	rec.count.Add(1)
	if !rec.podsSeen[podID] {
		rec.podsSeen[podID] = true
		rec.pods.Store(int64(len(rec.podsSeen)))
	}
	if !elect || rec.fixed || rec.inRepairLab || rec.synthesizing {
		return nil, false
	}
	rec.synthesizing = true
	return rec, true
}

// applyOutcome replays a journaled synthesis outcome onto a signature's
// record, creating the record if the batch that elected it was snapshotted
// away.
func (t *failureTable) applyOutcome(sig string, outcome prog.Outcome, fixed bool) {
	s := t.stripeFor(sig)
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[sig]
	if !ok {
		rec = &failureRecord{signature: sig, outcome: outcome, podsSeen: make(map[string]bool)}
		if s.recs == nil {
			s.recs = make(map[string]*failureRecord)
		}
		s.recs[sig] = rec
	}
	rec.synthesizing = false
	if fixed {
		rec.fixed = true
	} else {
		rec.inRepairLab = true
	}
}

// export renders every record with its full bookkeeping (distinct pod IDs
// included) for a checkpoint snapshot, sorted by signature. In-flight
// synthesis elections are exported as not-synthesizing: if the election's
// outcome op never lands in the journal, recovery must be able to re-elect.
func (t *failureTable) export() []journal.FailureState {
	var out []journal.FailureState
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		for _, rec := range s.recs {
			fs := journal.FailureState{
				Signature:   rec.signature,
				Outcome:     uint8(rec.outcome),
				Count:       rec.count.Load(),
				Fixed:       rec.fixed,
				InRepairLab: rec.inRepairLab,
			}
			for pod := range rec.podsSeen {
				fs.Pods = append(fs.Pods, pod)
			}
			sort.Strings(fs.Pods)
			if rec.sample != nil {
				fs.Sample = trace.Encode(rec.sample)
			}
			out = append(out, fs)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Signature < out[j].Signature })
	return out
}

// clear empties the table.
func (t *failureTable) clear() {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		s.recs = nil
		s.mu.Unlock()
	}
}

// restore rebuilds one record from its snapshot state.
func (t *failureTable) restore(fs journal.FailureState) error {
	rec := &failureRecord{
		signature:   fs.Signature,
		outcome:     prog.Outcome(fs.Outcome),
		podsSeen:    make(map[string]bool, len(fs.Pods)),
		fixed:       fs.Fixed,
		inRepairLab: fs.InRepairLab,
	}
	rec.count.Store(fs.Count)
	for _, pod := range fs.Pods {
		rec.podsSeen[pod] = true
	}
	rec.pods.Store(int64(len(rec.podsSeen)))
	if len(fs.Sample) > 0 {
		sample, err := trace.Decode(fs.Sample)
		if err != nil {
			return fmt.Errorf("hive: restore failure %q sample: %w", fs.Signature, err)
		}
		rec.sample = sample
	}
	s := t.stripeFor(fs.Signature)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recs == nil {
		s.recs = make(map[string]*failureRecord)
	}
	s.recs[fs.Signature] = rec
	return nil
}

// finishSynthesis concludes a signature's single-flight fix attempt: the
// signature is marked fixed, or routed to the repair lab — or, when the
// journal refused the outcome (refused non-nil), left as it was, for the
// next trace carrying it to win a new election.
func (t *failureTable) finishSynthesis(rec *failureRecord, fixed bool, refused error) {
	s := t.stripeFor(rec.signature)
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.synthesizing = false
	switch {
	case refused != nil:
	case fixed:
		rec.fixed = true
	default:
		rec.inRepairLab = true
	}
}

// get returns the record for a signature, or nil.
func (t *failureTable) get(sig string) *failureRecord {
	s := t.stripeFor(sig)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs[sig]
}

// snapshot renders every record as an exported FailureRecord, sorted by
// descending count (ties by signature for determinism).
func (t *failureTable) snapshot() []FailureRecord {
	var out []FailureRecord
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		for _, rec := range s.recs {
			out = append(out, FailureRecord{
				Signature:   rec.signature,
				Outcome:     rec.outcome,
				Count:       rec.count.Load(),
				Pods:        int(rec.pods.Load()),
				Sample:      rec.sample,
				Fixed:       rec.fixed,
				InRepairLab: rec.inRepairLab,
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}
