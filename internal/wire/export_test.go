package wire

import "io"

// ReadFrame reads one frame into a fresh buffer.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	return readFrameInto(r, nil)
}

// HelloCount reports how many hello exchanges this client has run. Tests
// use it to prove a shedding (busy) owner does not trigger a
// hello storm the way a dead one does.
func (c *Client) HelloCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.helloCount
}

// Owner reports where programID currently routes (tests, diagnostics).
func (r *Router) Owner(programID string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ownerLocked(programID)
}

// PlacementVersion reports the version of the newest placement map this
// router has adopted, 0 when it has none.
func (r *Router) PlacementVersion() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refreshLocked(false)
	if r.placement == nil {
		return 0
	}
	return r.placement.Version()
}
