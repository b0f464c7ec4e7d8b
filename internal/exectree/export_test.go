package exectree

// DeltaTracking reports whether dirty-node recording is on.
func (t *Tree) DeltaTracking() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tracking
}
