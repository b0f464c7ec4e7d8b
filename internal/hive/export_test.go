package hive

// ProgramReadOnly reports whether a program's journal breaker is open
// (ingest refused with pod.ErrReadOnly, guidance reads served).
func (h *Hive) ProgramReadOnly(programID string) bool {
	st, err := h.state(programID)
	if err != nil {
		return false
	}
	return st.readOnly.Load()
}
