package journal

// ChainLength returns the number of delta segments layered over the
// program's base snapshot (0 when compact or never checkpointed).
func (s *Store) ChainLength(programID string) int {
	pl := s.log(programID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.deltas)
}
