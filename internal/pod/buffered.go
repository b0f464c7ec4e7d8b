package pod

import (
	"sync"

	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/trace"
)

// BufferedClient wraps a HiveClient for a pod that runs exactly one program
// and defers its trace uploads: SubmitTraces queues locally and Drain
// forwards everything queued to the backend. Fix distribution and guidance
// pass through unbuffered.
//
// This is the determinism lever for parallel fleets: when many pods run
// concurrently, giving each its own BufferedClient and draining them in a
// fixed pod order at a barrier makes hive ingestion order — and therefore
// which trace wins fix synthesis for a new failure signature — identical to
// a sequential fleet, no matter how the pods were scheduled.
//
// Every buffer is bound to its program, and it drains one streamChunk-sized
// frame at a time over either of two backends. A SealedStreamer (the wire
// client) gets sealed sequenced frames, exactly-once across drains. Any
// other backend (the in-process hive, which encodes each call into the
// frame it journals verbatim) gets one SubmitTraces call per chunk, so its
// frames are the ones the wire would carry.
type BufferedClient struct {
	backend   HiveClient
	programID string

	mu     sync.Mutex
	queued []*trace.Trace
	// sealed holds sequenced frames from earlier drains that were sealed
	// (tags assigned) but never acknowledged: a drain whose transparent
	// retry also failed parks its unacknowledged frames here, and the next
	// drain re-submits them with their original (session, seq) tags — so
	// cross-drain resubmission stays exactly-once against a dedup-capable
	// backend instead of degrading to at-least-once.
	sealed []SealedBatch
}

var _ HiveClient = (*BufferedClient)(nil)

// streamChunk is the per-frame batch size a buffer drains in: small
// enough to keep frames far under the wire limit, large enough to amortize
// framing.
const streamChunk = 256

// NewBufferedFor wraps backend for a pod that runs exactly one program:
// every queued trace is asserted to describe programID, the program the
// sealed frames name.
func NewBufferedFor(backend HiveClient, programID string) *BufferedClient {
	return &BufferedClient{backend: backend, programID: programID}
}

// SubmitTraces queues the batch for the next Drain.
func (b *BufferedClient) SubmitTraces(traces []*trace.Trace) error {
	b.mu.Lock()
	b.queued = append(b.queued, traces...)
	b.mu.Unlock()
	return nil
}

// FixesSince passes through to the backend.
func (b *BufferedClient) FixesSince(programID string, version int) ([]fix.Fix, int, error) {
	return b.backend.FixesSince(programID, version)
}

// Guidance passes through to the backend.
func (b *BufferedClient) Guidance(programID string, max int) ([]guidance.TestCase, error) {
	return b.backend.Guidance(programID, max)
}

// Pending reports how many traces are queued, including traces sealed into
// frames by a failed drain and awaiting resubmission.
func (b *BufferedClient) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.queued)
	for _, sb := range b.sealed {
		n += sb.Count
	}
	return n
}

// Drain forwards all queued traces to the backend, preserving queue order.
// On backend failure the unaccepted remainder is re-queued (ahead of
// anything queued meanwhile) and the error returned: a streaming backend
// reports which chunks of the drain it acknowledged, so this client never
// re-submits an acknowledged chunk. A chunk whose ack was lost with the
// connection is resent with its original (session, sequence) tag — by the
// stream's transparent retry within one drain, and, against a
// SealedStreamer backend, by later drains too: frames are sealed once,
// parked on failure, and re-submitted verbatim until acknowledged, so a
// dedup-capable backend ingests every chunk exactly once across any number
// of failed drains.
func (b *BufferedClient) Drain() error {
	b.mu.Lock()
	batch := b.queued
	b.queued = nil
	sealed := b.sealed
	b.sealed = nil
	b.mu.Unlock()
	if ss, ok := b.backend.(SealedStreamer); ok {
		return b.drainSealed(ss, sealed, batch)
	}
	for len(batch) > 0 {
		n := min(streamChunk, len(batch))
		if err := b.backend.SubmitTraces(batch[:n]); err != nil {
			b.mu.Lock()
			b.queued = append(batch, b.queued...)
			b.mu.Unlock()
			return err
		}
		batch = batch[n:]
	}
	return nil
}

// drainSealed is the exactly-once drain path: leftover sealed frames from
// failed drains go first (oldest tags first), the fresh queue is sealed
// behind them, and whatever the backend does not acknowledge is parked —
// still sealed — for the next drain.
func (b *BufferedClient) drainSealed(ss SealedStreamer, sealed []SealedBatch, batch []*trace.Trace) error {
	if len(batch) > 0 {
		rest := batch
		chunks := make([][]*trace.Trace, 0, (len(rest)+streamChunk-1)/streamChunk)
		for len(rest) > streamChunk {
			chunks = append(chunks, rest[:streamChunk])
			rest = rest[streamChunk:]
		}
		chunks = append(chunks, rest)
		sealed = append(sealed, ss.SealTraceBatches(b.programID, chunks)...)
	}
	if len(sealed) == 0 {
		return nil
	}
	accepted, err := ss.SubmitSealed(sealed)
	if err == nil {
		return nil
	}
	// Park every unacknowledged frame with its tag intact, whatever the
	// failure was. A frame in delivered-but-unacked limbo is dup-suppressed
	// on resubmission; a frame the server rejected (never applied) is
	// re-attempted under the same tag and ingested then — the backend's
	// dedup window is the exact applied set, so neither case depends on
	// ordering relative to other frames.
	var park []SealedBatch
	for i, sb := range sealed {
		if i >= len(accepted) || !accepted[i] {
			park = append(park, sb)
		}
	}
	b.mu.Lock()
	b.sealed = append(park, b.sealed...)
	b.mu.Unlock()
	return err
}
