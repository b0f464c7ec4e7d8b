package hive

import "repro/internal/exectree"

// ProgramReadOnly reports whether a program's journal breaker is open
// (ingest refused with pod.ErrReadOnly, guidance reads served).
func (h *Hive) ProgramReadOnly(programID string) bool {
	st, err := h.state(programID)
	if err != nil {
		return false
	}
	return st.readOnly.Load()
}

// liveTree returns a program's execution tree itself, for tests that read
// what a TreeView does not show or merge into the tree directly.
func (h *Hive) liveTree(programID string) *exectree.Tree {
	st, err := h.state(programID)
	if err != nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.tree
}
