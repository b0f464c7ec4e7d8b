package hive

import "errors"

// leakOnReturn can return with sessMu still held. Finding expected.
func (h *Hive) leakOnReturn(cond bool) error {
	h.sessMu.Lock()
	if cond {
		return errors.New("bail")
	}
	h.sessMu.Unlock()
	return nil
}

// invertedOrder acquires ckpt while holding mu, inverting the documented
// ckpt-before-mu order. Finding expected.
func invertedOrder(st *programState) {
	st.mu.Lock()
	st.ckpt.RLock()
	st.ckpt.RUnlock()
	st.mu.Unlock()
}

// registryThenProgram acquires a program lock while holding the leaf
// registry lock. Finding expected.
func (h *Hive) registryThenProgram(st *programState) {
	h.mu.RLock()
	st.mu.Lock()
	st.mu.Unlock()
	h.mu.RUnlock()
}

// doubleAcquire self-deadlocks. Finding expected.
func doubleAcquire(st *programState) {
	st.mu.Lock()
	st.mu.Lock()
	st.mu.Unlock()
	st.mu.Unlock()
}

// correctOrder follows the session entry before ckpt before mu. Clean.
func correctOrder(e *sessionEntry, st *programState) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st.ckpt.RLock()
	defer st.ckpt.RUnlock()
	st.mu.Lock()
	st.mu.Unlock()
}

// deferredUnlock returns early safely under a deferred unlock. Clean.
func deferredUnlock(st *programState, cond bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if cond {
		return errors.New("bail")
	}
	st.applied++
	return nil
}

// handoffAllowed transfers lock ownership deliberately: the suppression
// must silence it.
func (e *sessionEntry) handoffAllowed(done chan<- *sessionEntry) {
	//lint:allow lockdiscipline ownership transfers to the receiver, which unlocks
	e.mu.Lock()
	done <- e
	return
}
