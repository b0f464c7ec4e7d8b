// Package hive seeds journalfirst and lockdiscipline violations against
// miniature stand-ins for the real hive's types and journaled-apply call
// graph.
package hive

import "sync"

// Hive mirrors the real registry locks.
type Hive struct {
	mu     sync.RWMutex
	sessMu sync.Mutex
	progs  map[string]*programState
}

// programState mirrors the real per-program lock set.
type programState struct {
	mu      sync.Mutex
	ckpt    sync.RWMutex
	kgMu    sync.Mutex
	coordMu sync.Mutex
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
	_ = h.journalBatchAppend(st)
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
	_ = h.journalBatchAppend(st)
	h.applyBatchView(st)
	h.markSession("s")
}

// applyOp is the sanctioned recovery/replay path. Clean.
func (h *Hive) applyOp(st *programState) {
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
func (h *Hive) journalBatchAppend(st *programState) error { return nil }

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
	_ = h.journalBatchAppend(st)
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
	_ = h.journalBatchAppend(st)
}

// Guidance certifies what its generator refuted. Clean.
func (h *Hive) Guidance(st *programState) {
	certify := func() { h.certify(st) }
	certify()
}

// Prove hands the proof engine the same function. Clean.
func (h *Hive) Prove(st *programState) {
	h.certify(st)
}

// discharge certifies from outside a pull or a proof attempt — under no
// checkpoint gate. Finding expected.
func (h *Hive) discharge(st *programState) {
	h.certify(st)
}
