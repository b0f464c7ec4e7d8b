package wire

import "io"

// ReadFrame reads one frame into a fresh buffer.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	return readFrameInto(r, nil)
}

// HelloCount reports how many hello exchanges this client has run, over all
// its connections. Tests use it to prove a shedding (busy) owner does not
// trigger a hello storm the way a dead one does.
func (c *Client) HelloCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, hc := range c.conns {
		hc.mu.Lock()
		n += hc.helloCount
		hc.mu.Unlock()
	}
	return n
}

// Owner reports where programID currently routes (tests, diagnostics).
func (c *Client) Owner(programID string) string {
	return c.owner(programID).addr
}

// PlacementVersion reports the version of the newest placement map this
// client has adopted, 0 when it has none.
func (c *Client) PlacementVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pollLocked()
	if c.placement == nil {
		return 0
	}
	return c.placement.Version()
}

// connTo returns the client's connection to addr, creating it on first use.
func (c *Client) connTo(addr string) *hiveConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.connLocked(addr)
}
