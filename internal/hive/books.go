package hive

import (
	"fmt"
	"sort"

	"repro/internal/fix"
	"repro/internal/journal"
	"repro/internal/prog"
	"repro/internal/proof"
	"repro/internal/trace"
)

// books is a program's journaled bookkeeping apart from its tree and its
// counters: the fix set with its epoch, standing proofs, failure aggregation
// and known-good inputs. It is one value under programState.mu: reset and a
// restore install a fresh one, and a checkpoint encodes one.
type books struct {
	fixes  fix.Set
	epoch  int
	proofs map[proof.Property]*proof.Proof

	// failures aggregates failing traces by signature.
	failures map[string]*failureRecord

	// knownGood holds raw inputs observed to succeed (only available from
	// PrivacyRaw pods); used to pick safe replacements and validate guards.
	knownGood [][]int64
}

// newBooks returns the bookkeeping registration leaves a program with.
func newBooks() books {
	return books{
		proofs:   make(map[proof.Property]*proof.Proof),
		failures: make(map[string]*failureRecord),
	}
}

// failureRecord aggregates one failure signature. signature, outcome, and
// sample are immutable once the record is in books.failures; the rest is
// guarded by the mu of the programState whose books hold it.
type failureRecord struct {
	signature string
	outcome   prog.Outcome
	sample    *trace.Trace

	count        int64
	podsSeen     map[string]bool
	fixed        bool
	inRepairLab  bool
	synthesizing bool
}

// recordFailure folds one failing trace into the aggregation and — when
// elect is set — elects at most one synthesizer per signature: the first
// trace to see a signature wins the election, and applySynthesis concludes
// it once the attempt's outcome is journaled (a refused one reopens it);
// every other trace (concurrent or later) only bumps counters. Journal
// replay records with elect false: synthesis outcomes are replayed from
// their own journal ops, never re-derived.
//
// The sample is supplied lazily: sample() runs only when the signature is
// new, so repeat failures aggregate from a batch view without materializing
// a Trace — the sample is built exactly once per signature ever.
func (b *books) recordFailure(sig []byte, podID string, outcome prog.Outcome, sample func() *trace.Trace, elect bool) (*failureRecord, bool) {
	rec, ok := b.failures[string(sig)]
	if !ok {
		rec = &failureRecord{signature: string(sig), outcome: outcome, sample: sample(), podsSeen: make(map[string]bool)}
		b.failures[rec.signature] = rec
	}
	rec.count++
	rec.podsSeen[podID] = true
	if !elect || rec.fixed || rec.inRepairLab || rec.synthesizing {
		return nil, false
	}
	rec.synthesizing = true
	return rec, true
}

// harvestKnownGood records a raw input observed to succeed, bounded.
func (b *books) harvestKnownGood(input []int64) {
	if len(b.knownGood) < 1024 {
		b.knownGood = append(b.knownGood, append([]int64(nil), input...))
	}
}

// failureRecords renders every record as an exported FailureRecord, sorted by
// descending count (ties by signature for determinism).
func (b *books) failureRecords() []FailureRecord {
	var out []FailureRecord
	for _, rec := range b.failures {
		out = append(out, FailureRecord{
			Signature:   rec.signature,
			Outcome:     rec.outcome,
			Count:       rec.count,
			Pods:        len(rec.podsSeen),
			Sample:      rec.sample,
			Fixed:       rec.fixed,
			InRepairLab: rec.inRepairLab,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}

// encode writes the books into a checkpoint snapshot. Failure records carry
// their full bookkeeping (distinct pod IDs included), sorted by signature.
// In-flight synthesis elections are written as not-synthesizing: if the
// election's outcome op never lands in the journal, recovery must be able to
// re-elect. Each failure sample is a one-trace columnar batch under
// snap.ProgramID, which the caller sets.
func (b *books) encode(snap *journal.ProgramSnapshot) error {
	snap.Epoch = b.epoch
	for _, f := range b.fixes.All() {
		snap.Fixes = append(snap.Fixes, fix.Append(nil, &f))
	}
	props := make([]proof.Property, 0, len(b.proofs))
	for p := range b.proofs {
		props = append(props, p)
	}
	sort.Slice(props, func(i, j int) bool { return props[i] < props[j] })
	for _, p := range props {
		snap.Proofs = append(snap.Proofs, proof.Append(nil, b.proofs[p]))
	}
	for _, rec := range b.failures {
		fs := journal.FailureState{
			Signature:   rec.signature,
			Outcome:     uint8(rec.outcome),
			Count:       rec.count,
			Fixed:       rec.fixed,
			InRepairLab: rec.inRepairLab,
		}
		for pod := range rec.podsSeen {
			fs.Pods = append(fs.Pods, pod)
		}
		sort.Strings(fs.Pods)
		if rec.sample != nil {
			raw, err := trace.EncodeBatch(snap.ProgramID, []*trace.Trace{rec.sample})
			if err != nil {
				return fmt.Errorf("failure %q sample: %w", rec.signature, err)
			}
			fs.Sample = raw
		}
		snap.Failures = append(snap.Failures, fs)
	}
	sort.Slice(snap.Failures, func(i, j int) bool { return snap.Failures[i].Signature < snap.Failures[j].Signature })
	for _, g := range b.knownGood {
		snap.KnownGood = append(snap.KnownGood, append([]int64(nil), g...))
	}
	return nil
}

// decodeSample materializes a failure sample: a one-trace columnar batch.
func decodeSample(raw []byte) (*trace.Trace, error) {
	v, err := trace.DecodeBatch(raw)
	if err != nil {
		return nil, err
	}
	defer v.Release()
	if v.Len() != 1 {
		return nil, fmt.Errorf("%d traces, want 1", v.Len())
	}
	return v.Materialize(0), nil
}

// decodeBooks rebuilds the books a checkpoint snapshot holds.
func decodeBooks(snap *journal.ProgramSnapshot) (books, error) {
	b := newBooks()
	fixes := make([]fix.Fix, 0, len(snap.Fixes))
	for i, raw := range snap.Fixes {
		f, err := fix.Decode(raw)
		if err != nil {
			return books{}, fmt.Errorf("fix %d: %w", i, err)
		}
		fixes = append(fixes, *f)
	}
	if err := b.fixes.Load(fixes); err != nil {
		return books{}, fmt.Errorf("fixes: %w", err)
	}
	b.epoch = snap.Epoch
	for i, raw := range snap.Proofs {
		pr, err := proof.Decode(raw)
		if err != nil {
			return books{}, fmt.Errorf("proof %d: %w", i, err)
		}
		b.proofs[pr.Property] = pr
	}
	for _, fs := range snap.Failures {
		rec := &failureRecord{
			signature:   fs.Signature,
			outcome:     prog.Outcome(fs.Outcome),
			count:       fs.Count,
			podsSeen:    make(map[string]bool, len(fs.Pods)),
			fixed:       fs.Fixed,
			inRepairLab: fs.InRepairLab,
		}
		for _, pod := range fs.Pods {
			rec.podsSeen[pod] = true
		}
		if len(fs.Sample) > 0 {
			sample, err := decodeSample(fs.Sample)
			if err != nil {
				return books{}, fmt.Errorf("failure %q sample: %w", fs.Signature, err)
			}
			rec.sample = sample
		}
		b.failures[fs.Signature] = rec
	}
	for _, g := range snap.KnownGood {
		b.knownGood = append(b.knownGood, append([]int64(nil), g...))
	}
	return b, nil
}
