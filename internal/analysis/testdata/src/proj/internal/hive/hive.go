// Package hive seeds journalfirst and lockdiscipline violations against
// miniature stand-ins for the real hive's types and the call graph the
// journal's receipt does not carry.
package hive

import "sync"

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

// applyOp is the sanctioned replay of one op.
func (h *Hive) applyOp(st *programState) {}

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

// ImportChain was ImportProgram until a rename the guard table did not
// follow. Findings expected: the name the recoverProgram row still lists,
// and the call that row no longer admits.
func (h *Hive) ImportChain(st *programState) {
	h.recoverProgram(st)
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

// replayHook is a deliberate exception: the suppression must silence it.
func (h *Hive) replayHook(st *programState) {
	//lint:allow journalfirst test-only replay hook; never reachable in production
	h.applyOp(st)
}
