// Package hive seeds journalfirst and lockdiscipline violations against
// miniature stand-ins for the real hive's types and journaled-apply call
// graph.
package hive

import (
	"sync"

	"fixture/internal/journal"
)

// Hive mirrors the real registry locks.
type Hive struct {
	mu     sync.RWMutex
	sessMu sync.Mutex
	progs  map[string]*programState
}

// programState mirrors the real per-program lock set: the checkpoint gate
// and the one lock over the program's books. The real type holds no other
// mutex.
type programState struct {
	mu      sync.Mutex
	ckpt    sync.RWMutex
	applied int
}

// sessionEntry mirrors the per-session dedup record.
type sessionEntry struct {
	mu   sync.Mutex
	seen int
}

func (h *Hive) applyBatchView(st *programState) {
	st.applied++
	h.synthesizeFix(st)
}

// synthesizeFix journals its outcome through the breaker-accounted wrapper
// before publishing the fix. Clean.
func (h *Hive) synthesizeFix(st *programState) {
	_ = h.journalBatchAppend(st, &journal.Op{Kind: journal.OpSynthesis})
}

func (h *Hive) markSession(id string) {}

// mergeSessionTables was mergeSessions until a rename the guard table did not
// follow. Findings expected: the name the markSession row still lists, and
// the call that row no longer admits.
func (h *Hive) mergeSessionTables(a string) {
	h.markSession(a)
}

// SubmitColumnarSession is the one ingest path; it appends through the
// breaker-accounted wrapper before applying. Clean.
func (h *Hive) SubmitColumnarSession(st *programState) {
	_ = h.journalBatchAppend(st, &journal.Op{Kind: journal.OpBatchColumnar})
	h.applyBatchView(st)
	h.markSession("s")
}

// applyOp is the sanctioned recovery/replay path. A kind no live mutation
// journals may be built anywhere. Clean.
func (h *Hive) applyOp(st *programState) {
	_ = journal.Op{Kind: journal.OpBatch}
	h.applyBatchView(st)
	h.markSession("s")
}

// restoreProgram mirrors the snapshot-chain restore.
func (h *Hive) restoreProgram(st *programState) {}

// recoverProgram is the one restore: chain, then journal suffix. Clean.
func (h *Hive) recoverProgram(st *programState) {
	h.restoreProgram(st)
	h.applyOp(st)
}

// Recover restores every program at boot. Clean.
func (h *Hive) Recover(st *programState) {
	h.recoverProgram(st)
}

// ImportProgram restores a chain in hand through the same function and makes
// it durable through the checkpoint path. Clean.
func (h *Hive) ImportProgram(st *programState) {
	h.recoverProgram(st)
	h.checkpointLocked(st)
}

// handleDirect mutates program state without journaling. Finding expected.
func (h *Hive) handleDirect(st *programState) {
	h.applyBatchView(st)
}

// retryFix elects synthesis outside an applied batch. Finding expected.
func (h *Hive) retryFix(st *programState) {
	h.synthesizeFix(st)
}

// touchSession marks a session outside the sanctioned paths. Finding
// expected.
func (h *Hive) touchSession(id string) {
	h.markSession(id)
}

// replayHook is a deliberate exception: the suppression must silence it.
func (h *Hive) replayHook(st *programState) {
	//lint:allow journalfirst test-only replay hook; never reachable in production
	h.applyBatchView(st)
}

// journalBatchAppend mirrors the PR 10 breaker-accounted append wrapper.
func (h *Hive) journalBatchAppend(st *programState, op *journal.Op) error { return nil }

// closeReadOnly mirrors the breaker close; only a landed checkpoint may
// call it.
func (st *programState) closeReadOnly() {}

// checkpointLocked is the sanctioned breaker-close path. Clean.
func (h *Hive) checkpointLocked(st *programState) {
	st.closeReadOnly()
}

// CheckpointProgram is the periodic checkpoint. Clean.
func (h *Hive) CheckpointProgram(st *programState) {
	h.checkpointLocked(st)
}

// rawAppend bypasses the breaker's failure accounting. Finding expected.
func (h *Hive) rawAppend(st *programState) {
	_ = h.journalBatchAppend(st, nil)
}

// forceWritable closes the breaker without a checkpoint. Finding expected.
func (h *Hive) forceWritable(st *programState) {
	st.closeReadOnly()
}

// takeOver restores a program around the one restore function. Findings
// expected.
func (h *Hive) takeOver(st *programState) {
	h.restoreProgram(st)
	h.applyOp(st)
}

// rebuild reaches the restore function from outside boot and import.
// Finding expected.
func (h *Hive) rebuild(st *programState) {
	h.recoverProgram(st)
}

// persistDirect checkpoints outside the timer and the import. Finding
// expected.
func (h *Hive) persistDirect(st *programState) {
	h.checkpointLocked(st)
}

// certify journals a certificate through the breaker-accounted wrapper, then
// applies it. Clean.
func (h *Hive) certify(st *programState) {
	_ = h.journalBatchAppend(st, &journal.Op{Kind: journal.OpCert})
}

// Guidance certifies what its generator refuted. Clean.
func (h *Hive) Guidance(st *programState) {
	certify := func() { h.certify(st) }
	certify()
}

// Prove hands the proof engine the same function, then journals the proof
// through the breaker-accounted wrapper. Clean.
func (h *Hive) Prove(st *programState) {
	h.certify(st)
	_ = h.journalBatchAppend(st, &journal.Op{Kind: journal.OpProof})
}

// discharge certifies from outside a pull or a proof attempt — under no
// checkpoint gate. Finding expected.
func (h *Hive) discharge(st *programState) {
	h.certify(st)
}

// staleBatch is a columnar batch op built at package scope, outside the one
// ingest path. Finding expected.
var staleBatch = journal.Op{Kind: journal.OpBatchColumnar}

// reissueFix builds a synthesis op outside synthesizeFix. Finding expected.
func (h *Hive) reissueFix(st *programState) journal.Op {
	return journal.Op{Kind: journal.OpSynthesis}
}

// forgeCert builds a certificate op outside certify. Finding expected.
func (h *Hive) forgeCert(st *programState) *journal.Op {
	return &journal.Op{Kind: (journal.OpCert)}
}

// publishProof builds a proof op outside Prove. Finding expected.
func (h *Hive) publishProof(st *programState) journal.Op {
	op := journal.Op{Kind: journal.OpProof}
	return op
}
