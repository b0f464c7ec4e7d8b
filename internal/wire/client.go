package wire

import (
	"cmp"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/pod"
	"repro/internal/ring"
	"repro/internal/trace"
)

// Client is the pod.HiveClient over one hive or a sharded hive fleet. It
// learns the placement ring from any seed's hello, routes every per-program
// frame — submission or read — to that program's owner, and keeps itself
// current from the two signals the protocol emits: MsgRedirect (the owner
// moved: adopt the newer map the redirect carries and ask again) and a
// transport failure (the owner may be down: re-poll the seeds for a newer
// map). Anything else a hive answers — busy, or a refusal of the frame or
// the request itself — is not a routing signal. Every attempt count is
// bounded, so members that disagree on placement cost an error, never a
// wait. Against one unsharded hive no placement is advertised and
// everything goes to the first seed.
//
// Each hive address gets a connection of its own, with a random session ID
// and a monotonically increasing frame sequence number. A frame is sealed on
// its owner's connection, tagged with both, and resent verbatim — after a
// reconnect, a busy reply, or a re-homing to another hive — so a backend with
// a per-session dedup window (hive.Hive) ingests each batch exactly once no
// matter how many times, or where, it is delivered. Sessions are per hive,
// not per client: the seqs one hive never sees would be permanent gaps in
// its window, which it slides past once enough marks pile up, and a re-homed
// frame that was never applied would then be acked as a duplicate.
type Client struct {
	// seeds are the bootstrap addresses, polled for placement. Every fleet
	// member works as a seed.
	seeds []string

	mu sync.Mutex
	// conns holds one connection per hive address, created lazily (guarded
	// by mu); redirect targets outside the seed list land here too.
	conns map[string]*hiveConn
	// placement is the newest ring seen, from any seed's hello or any
	// redirect (guarded by mu). nil until a sharded member advertises one;
	// nil sends everything to seeds[0].
	placement *ring.Map

	// rng is the state of the busy-backoff jitter stream.
	rng atomic.Uint64

	// RetryBase and RetryCap bound the jittered exponential backoff used
	// after MsgBusy replies (defaults defaultRetryBase / defaultRetryCap).
	// Set before first use.
	RetryBase time.Duration
	RetryCap  time.Duration
}

var _ pod.HiveClient = (*Client)(nil)
var _ pod.SealedStreamer = (*Client)(nil)

// hiveConn is a Client's connection to one hive: the socket, what its hello
// settled, the exactly-once identity of the frames sealed on it, and the
// buffers its exchanges reuse. Everything below mu is guarded by it.
type hiveConn struct {
	addr    string
	session string

	mu   sync.Mutex
	conn net.Conn
	// seq numbers the frames sealed here. The server's dedup window is the
	// exact set of applied seqs per session, so tags only need to be unique
	// and stable — frames may reach the server in any order (concurrent
	// streams on a shared client, parked frames resubmitted drains later)
	// without one frame's progress masking another's.
	seq uint64

	// greeted and the fields below cache the hello exchange: before sealing
	// or submitting frames the connection says hello once; a failed exchange
	// is retried on the next seal or submit.
	greeted bool
	// compressing reports that sealed batches are DEFLATE-compressed: the
	// link looks far (see helloRTT).
	compressing bool
	// placement is the map this hive advertised (nil when unsharded).
	// lastRedirect remembers the most recent MsgRedirect it answered, so a
	// later retry-exhausted error can tell "owner moved" from "owner down".
	placement    *ring.Map
	lastRedirect *RedirectError
	// helloRTT is the measured duration of the hello exchange on an
	// already-established connection — a free RTT probe. Compression
	// costs CPU on both ends, so it engages only when the link is far
	// enough (compressRTTFloor) for bandwidth to be the bottleneck;
	// loopback fleets skip it and keep their syscall-bound throughput.
	helloRTT time.Duration
	// helloCount counts hello exchanges; tests use it to prove busy replies
	// do not trigger hello storms.
	helloCount int

	// sealScratch is sealFrameLocked's reusable columnar encode buffer for
	// the bytes it compresses or copies into a fresh payload.
	sealScratch []byte
	// free holds the payload buffers of frames the hive acknowledged, for
	// sealFrameLocked to seal into again. recycleLocked keeps at most
	// maxInflightFrames of them, none larger than coalesceByteBudget.
	free [][]byte
	// hdrScratch and bufScratch are writeCoalescedLocked's reusable header
	// and vector backing arrays; vec is the vector being written.
	hdrScratch []byte
	bufScratch net.Buffers
	vec        net.Buffers
	// req, frame and reply are the buffers of the request/response
	// exchanges — hello, fixes, guidance: the request payload, the frame it
	// is written in, and the reply payload read back. A reply is decoded into
	// values that share none of its bytes before the lock is let go, and
	// reply keeps at most maxKeptReply bytes.
	req, frame, reply []byte
	// ackHdr is readGroupAck's frame header.
	ackHdr [5]byte
}

// maxInflightFrames bounds how many mega-frames SubmitSealed keeps
// unacknowledged on the socket. The window keeps the server's bounded
// ingest queue and both TCP buffers from absorbing an arbitrarily large
// drain (which could deadlock writer against writer) while still amortizing
// a round trip across the whole window.
const maxInflightFrames = 32

// coalesceDepth is how many inner frames one mega-frame carries at most.
const coalesceDepth = 16

// coalesceByteBudget bounds the bytes of a mega-frame of more than one inner
// frame, keeping worst-case in-flight volume (window × budget) and the
// server's per-frame buffer modest. A frame larger than the budget travels
// as a mega-frame of one.
const coalesceByteBudget = 1 << 20

// maxSealedPayload is the largest sealed payload that can be submitted: its
// mega-frame of one — the outer type byte, the inner header, the payload —
// must itself be a legal frame.
const maxSealedPayload = MaxFrameSize - 6

// maxKeptReply bounds the reply buffer a client, or a server connection,
// keeps between exchanges.
const maxKeptReply = 64 << 10

// compressRTTFloor is the hello-RTT above which compression engages: past a
// few milliseconds the link is a network, not a loopback, and trading CPU
// for bytes wins.
const compressRTTFloor = 5 * time.Millisecond

// compressMinBytes skips compression for frames too small to amortize the
// DEFLATE setup.
const compressMinBytes = 512

// defaultBusyRetries is how many busy-backoff rounds a submission
// survives before the busy error surfaces to the caller. With the default
// schedule the rounds sum to a few seconds — long enough
// to ride out a flash crowd, short enough that a caller with its own
// retry loop (pod.BufferedClient parks unaccepted frames) gets control
// back.
const defaultBusyRetries = 8

// maxRouteAttempts bounds how many placement generations one submission or
// read chases: first send, one redirect- or refresh-guided retry, one more
// for a map that moved again mid-flight. Past that the caller's frames stay
// parked (sealed frames lose nothing by waiting).
const maxRouteAttempts = 3

// Dial creates a client bootstrapping from the given hive addresses: one
// hive, or any members of a sharded fleet. Connections are established
// lazily on first use.
func Dial(seeds ...string) *Client {
	if len(seeds) == 0 {
		panic("wire: Dial needs at least one hive address")
	}
	return &Client{seeds: seeds, conns: make(map[string]*hiveConn)}
}

// newSessionID draws a random 16-hex-digit session identity.
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Session-less operation degrades to at-least-once, never breaks.
		return ""
	}
	return hex.EncodeToString(b[:])
}

// Close tears down every connection; the next use redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	for _, hc := range c.conns {
		if err := hc.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Handshake eagerly dials every seed and says hello, adopting the newest
// placement advertised. Seal, submit and read do so lazily. It fails only
// when no seed answered.
func (c *Client) Handshake() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refreshLocked(false)
}

// connLocked returns the connection to addr, creating it on first use.
func (c *Client) connLocked(addr string) *hiveConn {
	hc, ok := c.conns[addr]
	if !ok {
		hc = &hiveConn{addr: addr, session: newSessionID()}
		c.conns[addr] = hc
	}
	return hc
}

// adoptLocked installs m if it is newer than the placement held.
func (c *Client) adoptLocked(m *ring.Map) {
	if m != nil && (c.placement == nil || m.Version() > c.placement.Version()) {
		c.placement = m
	}
}

// refreshLocked says hello to every seed and keeps the newest placement
// advertised. fresh re-runs the hello on seeds already greeted (a failure
// suggested the map predates a membership change); without it only seeds
// never greeted are asked. Seeds that are down are skipped — any one live
// member suffices — and the first seed's error is returned when none
// answered.
func (c *Client) refreshLocked(fresh bool) error {
	var firstErr error
	answered := false
	for _, addr := range c.seeds {
		m, err := c.connLocked(addr).hello(fresh)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		answered = true
		c.adoptLocked(m)
	}
	if answered {
		return nil
	}
	return firstErr
}

// pollLocked asks the seeds for a placement while none is held.
func (c *Client) pollLocked() {
	if c.placement == nil {
		_ = c.refreshLocked(false) // an unreachable seed advertises nothing
	}
}

// routeLocked returns the connection to programID's owner under the current
// placement; with none (an unsharded hive, or no seed reachable yet)
// everything routes to the first seed.
func (c *Client) routeLocked(programID string) *hiveConn {
	addr := c.seeds[0]
	if c.placement != nil {
		if owner := c.placement.Owner(programID); owner != "" {
			addr = owner
		}
	}
	return c.connLocked(addr)
}

// owner returns the connection to programID's owner.
func (c *Client) owner(programID string) *hiveConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pollLocked()
	return c.routeLocked(programID)
}

// reroute digests a failure an owner answered with and reports whether
// asking again can help. A redirect teaches the newer map it carries. A busy
// reply is not a routing signal: the owner is alive and correctly placed,
// merely shedding, and re-polling every seed would turn one overloaded hive
// into a fleet-wide hello storm. Nor is a refusal: the hive that refused the
// frame or the request would refuse it again. Anything else is a transport
// failure (the owner may be down) and re-polls the seeds, so the next
// attempt runs on the freshest placement any surviving member advertises.
func (c *Client) reroute(err error) bool {
	var be *BusyError
	var fe *refusedError
	if errors.As(err, &be) || errors.As(err, &fe) {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var re *RedirectError
	if errors.As(err, &re) {
		c.adoptLocked(placementFromPayload(re.Placement))
	} else {
		_ = c.refreshLocked(true)
	}
	return true
}

// SubmitTraces implements pod.HiveClient for callers that hold a loose
// batch (a pod flushing without a bound buffer, the baselines): the batch is
// grouped by program (first-appearance order, arrival order within a
// program), every group is sealed into one frame on its owner's connection,
// and the frames drain through SubmitSealed. The frames carry their
// (session, seq) tags from the start, so the drain's transparent retry after
// a lost ack cannot double-ingest. Each program's group is ingested whole or
// not at all; a call spanning programs is not atomic — on error the groups
// the fleet acknowledged stay ingested.
func (c *Client) SubmitTraces(traces []*trace.Trace) error {
	var sealed []pod.SealedBatch
	for _, g := range trace.GroupByProgram(traces) {
		sealed = append(sealed, c.SealTraceBatches(g.ProgramID, [][]*trace.Trace{g.Traces})...)
	}
	_, err := c.SubmitSealed(sealed)
	return err
}

// SealTraceBatches implements pod.SealedStreamer: every batch becomes a
// sequenced frame, sealed on the connection to the program's current owner,
// whose (session, seq) tag is assigned here, once. A sealed frame is a
// durable exactly-once identity until it is acknowledged: SubmitSealed
// re-sends the payload verbatim however many times, to whichever hive owns
// the program by then, and across however many drains it takes, so a
// dedup-capable backend never applies it twice — in any submission order,
// because the backend's dedup window is the exact applied set per session,
// not an in-order high-water mark.
func (c *Client) SealTraceBatches(programID string, batches [][]*trace.Trace) []pod.SealedBatch {
	return c.owner(programID).seal(programID, batches)
}

// ownerGroup is one owner's share of a drain: the positions of its
// unacknowledged frames, and how submitting them went.
type ownerGroup struct {
	hc  *hiveConn
	idx []int
	err error
}

// SubmitSealed implements pod.SealedStreamer: the unacknowledged frames are
// grouped by owner under the current placement and every group streams to
// its owner — the last on the caller's goroutine, every other concurrently,
// so a drain finishes when the slowest owner's share does, not when the sum
// of all shares has crossed one link. Frames whose owner moved (redirect) or
// may be down (a transport failure) are regrouped under the refreshed
// placement and resubmitted verbatim, up to maxRouteAttempts times. An
// owner that refused a frame is not submitted to again in this call, and
// its refusal is the error returned. The returned flags report, per frame, whether a hive acknowledged
// it — on error a caller re-submits exactly the unacknowledged frames, never
// one a hive already ingested.
//
// Each owner's share streams as mega-frames, back-to-back without waiting
// for acks (bounded by maxInflightFrames), so a drain of n frames costs
// ~n/(depth × window) round trips instead of n. A transport failure drops
// the connection and retries once on a fresh one, resuming after the last
// acknowledged frame. A MsgBusy reply (the owner declined a frame under
// overload) is not a failure: the owner's share backs off — jittered
// exponential, floored at the server's retry-after hint — and resubmits the
// unaccepted frames, up to defaultBusyRetries rounds, before the busy error
// surfaces; those frames are not routed again in this call.
//
// SubmitSealed consumes every frame a hive acknowledged, on error too: its
// payload goes back to the free list of the connection that got the ack, and
// the caller's Payload is set to nil. An unacknowledged frame is left as it
// was.
func (c *Client) SubmitSealed(sealed []pod.SealedBatch) ([]bool, error) {
	accepted := make([]bool, len(sealed))
	if err := checkSealed(sealed); err != nil {
		return accepted, err
	}
	var routeErr, busyErr, refusedErr error
	// settled holds the owners not submitted to again in this call: those
	// still busy when their rounds ran out, and those that refused a frame.
	var settled []*hiveConn
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		groups := c.groupByOwner(sealed, accepted, settled)
		routeErr = nil
		if len(groups) == 0 {
			break
		}
		c.submitGroups(groups, sealed, accepted)
		for _, g := range groups {
			var be *BusyError
			switch {
			case g.err == nil:
			case c.reroute(g.err):
				routeErr = g.err
			case errors.As(g.err, &be):
				busyErr = g.err
				settled = append(settled, g.hc)
			default:
				refusedErr = cmp.Or(refusedErr, g.err)
				settled = append(settled, g.hc)
			}
		}
		if routeErr == nil {
			break
		}
	}
	return accepted, cmp.Or(refusedErr, routeErr, busyErr)
}

// groupByOwner groups the unacknowledged frames by owner, in first-appearance
// order, leaving out the owners in settled.
func (c *Client) groupByOwner(sealed []pod.SealedBatch, accepted []bool, settled []*hiveConn) []ownerGroup {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pollLocked()
	var groups []ownerGroup
	for i := range sealed {
		if accepted[i] {
			continue
		}
		hc := c.routeLocked(sealed[i].ProgramID)
		if slices.Contains(settled, hc) {
			continue
		}
		g := slices.IndexFunc(groups, func(g ownerGroup) bool { return g.hc == hc })
		if g < 0 {
			g = len(groups)
			groups = append(groups, ownerGroup{hc: hc, idx: make([]int, 0, len(sealed)-i)})
		}
		groups[g].idx = append(groups[g].idx, i)
	}
	return groups
}

// submitGroups submits every group to its owner: the last on the caller's
// goroutine, every other on a goroutine of its own. Each touches only its
// own positions of sealed and accepted.
func (c *Client) submitGroups(groups []ownerGroup, sealed []pod.SealedBatch, accepted []bool) {
	n := len(groups) - 1
	if n > 0 {
		var wg sync.WaitGroup
		for i := range groups[:n] {
			g := &groups[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.err = c.submitOwner(g.hc, sealed, g.idx, accepted)
			}()
		}
		defer wg.Wait()
	}
	groups[n].err = c.submitOwner(groups[n].hc, sealed, groups[n].idx, accepted)
}

// submitOwner streams the frames at positions idx of sealed to hc, backing
// off and resubmitting the ones a busy owner declined — verbatim, so the
// dedup window stays exact — up to defaultBusyRetries rounds.
func (c *Client) submitOwner(hc *hiveConn, sealed []pod.SealedBatch, idx []int, accepted []bool) error {
	for round := 0; ; round++ {
		err := hc.submit(sealed, idx, accepted)
		if err == nil {
			return nil
		}
		var be *BusyError
		if !errors.As(err, &be) || round >= defaultBusyRetries {
			return err
		}
		idx = slices.DeleteFunc(idx, func(i int) bool { return accepted[i] })
		time.Sleep(backoffDelay(c.RetryBase, c.RetryCap, round, be.RetryAfter, jitter(&c.rng)))
	}
}

// checkSealed refuses, before anything is dialed, a drain holding a frame
// that no connection could carry: one already consumed by the submit that
// acknowledged it (its payload now belongs to another frame), or one too
// large to wrap in a mega-frame.
func checkSealed(sealed []pod.SealedBatch) error {
	for i, sb := range sealed {
		if sb.Payload == nil {
			return fmt.Errorf("%w: sealed frame %d has no payload: the submit that acknowledged it consumed it", ErrFrame, i)
		}
		if len(sb.Payload) > maxSealedPayload {
			return fmt.Errorf("%w: sealed frame %d of %d bytes exceeds the %d a mega-frame can carry", ErrFrame, i, len(sb.Payload), maxSealedPayload)
		}
	}
	return nil
}

// FixesSince implements pod.HiveClient, asking the program's owner. A
// redirect teaches the newer map and a transport failure re-polls the seeds;
// either way the ask goes again, up to maxRouteAttempts times: after a re-homing the new
// owner answers from the migrated fix history. If the members disagree on
// placement the last redirect is the error.
func (c *Client) FixesSince(programID string, version int) (fixes []fix.Fix, next int, err error) {
	err = c.read(programID, func(hc *hiveConn) (err error) {
		fixes, next, err = hc.fixesSince(programID, version)
		return err
	})
	return fixes, next, err
}

// Guidance implements pod.HiveClient, routed as FixesSince.
func (c *Client) Guidance(programID string, max int) (cases []guidance.TestCase, err error) {
	err = c.read(programID, func(hc *hiveConn) (err error) {
		cases, err = hc.guidance(programID, max)
		return err
	})
	return cases, err
}

// read runs ask on the connection to programID's owner until it succeeds or
// rerouting cannot help, at most maxRouteAttempts times.
func (c *Client) read(programID string, ask func(*hiveConn) error) error {
	var err error
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		if err = ask(c.owner(programID)); err == nil || !c.reroute(err) {
			return err
		}
	}
	return err
}

// close tears down the connection; the next use redials.
func (hc *hiveConn) close() error {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if hc.conn == nil {
		return nil
	}
	err := hc.conn.Close()
	hc.conn = nil
	return err
}

// callLocked performs one request/response exchange: payload (normally
// hc.req) goes out as one write, and the reply is read into hc.reply, which
// the returned payload aliases until the next exchange. On transport errors
// it drops the connection and retries once with a fresh one; the final error
// wraps the last underlying transport/decode failure instead of a generic
// unreachability string.
func (hc *hiveConn) callLocked(reqType MsgType, payload []byte) (MsgType, []byte, error) {
	if err := checkFrameSize(uint64(len(payload)) + 1); err != nil {
		// Oversized payload fails on any connection; don't burn the
		// retry or mask the cause as unreachability.
		return 0, nil, err
	}
	hc.frame = append(appendInnerHeader(hc.frame[:0], reqType, len(payload)), payload...)
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := hc.dialLocked(); err != nil {
			return 0, nil, err
		}
		if _, err := hc.conn.Write(hc.frame); err != nil {
			lastErr = fmt.Errorf("write: %w", err)
			_ = hc.conn.Close()
			hc.conn = nil
			continue
		}
		respType, resp, err := readFrameInto(hc.conn, hc.reply[:0])
		if err != nil {
			lastErr = fmt.Errorf("read: %w", err)
			_ = hc.conn.Close()
			hc.conn = nil
			continue
		}
		if cap(resp) <= maxKeptReply {
			hc.reply = resp
		}
		return respType, resp, nil
	}
	return 0, nil, hc.retryErrLocked(lastErr)
}

// readFrameInto reads one frame, header and payload, into buf's capacity,
// growing it as the frame needs, and returns the payload.
func readFrameInto(r io.Reader, buf []byte) (MsgType, []byte, error) {
	buf = append(buf[:0], 0, 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	t, size, err := parseFrameHeader(buf)
	if err != nil {
		return 0, nil, err
	}
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return t, buf, nil
}

// dialLocked establishes the connection if there is none.
func (hc *hiveConn) dialLocked() error {
	if hc.conn != nil {
		return nil
	}
	conn, err := net.Dial("tcp", hc.addr)
	if err != nil {
		return fmt.Errorf("wire: dial %s: %w", hc.addr, err)
	}
	hc.conn = conn
	return nil
}

// retryErrLocked wraps the final transport error after a failed retry.
// The message carries what the hello exchange settled and, on a sharded
// fleet, the last redirect this hive answered plus the placement version its
// hello advertised, so an operator can tell "owner moved" (a redirect names
// the new owner) from "owner down" (no redirect; the placement still points
// here) straight from the error string.
func (hc *hiveConn) retryErrLocked(lastErr error) error {
	link := "no hello answered"
	switch {
	case hc.greeted && hc.compressing:
		link = "compressing"
	case hc.greeted:
		link = "not compressing"
	}
	routed := ""
	if hc.lastRedirect != nil {
		routed = fmt.Sprintf("; last redirect: program %s -> %s at placement v%d",
			hc.lastRedirect.ProgramID, hc.lastRedirect.Owner, hc.lastRedirect.Version)
	} else if hc.placement != nil {
		routed = fmt.Sprintf("; no redirect seen at placement v%d", hc.placement.Version())
	}
	return fmt.Errorf("wire: %s unreachable after retry (%s%s): %w", hc.addr, link, routed, lastErr)
}

// noteRedirectLocked remembers the most recent redirect for error reporting.
func (hc *hiveConn) noteRedirectLocked(err error) {
	var re *RedirectError
	if errors.As(err, &re) {
		hc.lastRedirect = re
	}
}

// ensureGreetedLocked runs the hello exchange once per connection: name the
// protocol version, take the placement the server advertises. A failure —
// dial, transport, or a peer that speaks another version — is returned and
// leaves the connection un-greeted, so the next seal or submit retries. The
// exchange doubles as an RTT probe (the connection is established first, so
// the measurement is one request/response round trip), which decides whether
// compression is worth its CPU.
func (hc *hiveConn) ensureGreetedLocked() error {
	if hc.greeted {
		return nil
	}
	hc.req = AppendHello(hc.req[:0])
	if err := hc.dialLocked(); err != nil {
		return err
	}
	start := time.Now()
	respType, resp, err := hc.callLocked(MsgHello, hc.req)
	if err != nil {
		return err
	}
	hc.helloRTT = time.Since(start)
	hc.helloCount++
	if respType != MsgHelloAck {
		// A server of another version says so in a MsgError naming both.
		return fmt.Errorf("wire: %s refused the hello of protocol version %d: %w", hc.addr, ProtocolVersion, serverError(respType, resp))
	}
	version, placement, err := decodeHelloAck(resp)
	if err != nil {
		return refused("wire: %s: bad hello ack: %v", hc.addr, err)
	}
	if version != ProtocolVersion {
		return refused("wire: %s speaks protocol version %d, this client speaks version %d", hc.addr, version, ProtocolVersion)
	}
	hc.greeted = true
	hc.placement = placementFromPayload(placement)
	hc.compressing = hc.helloRTT >= compressRTTFloor
	return nil
}

// hello says hello unless this connection has — again when fresh — and
// returns the placement the hive advertised.
func (hc *hiveConn) hello(fresh bool) (*ring.Map, error) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if fresh {
		hc.greeted = false
	}
	err := hc.ensureGreetedLocked()
	return hc.placement, err
}

// sealFrameLocked encodes one sequenced submission frame: the (session,
// seq) tag, then the batch column-wise — one encoding the hive can ingest
// zero-copy and journal verbatim. The payload reuses the buffer of a frame
// the hive already acknowledged when the free list holds one; the batch is
// then encoded straight into it. A fresh payload is sized exactly, from the
// batch encoded into a reusable scratch. When compression is engaged the
// canonical columnar bytes are built in that scratch, compressed, and sealed
// for MsgSubmitBatchCompressed if that actually saved bytes — the tag stays
// outside the compressed region, and the server inflates back to the
// identical canonical payload before ingest, so dedup and journal
// byte-identity are untouched.
//
// A batch in which not every trace describes programID has no encoding
// (the frame names its program once). It is sealed as the tag alone: every
// server refuses the empty body, and the refusal lands in this frame's slot
// of the drain, where the caller learns of any other rejected batch.
func (hc *hiveConn) sealFrameLocked(seq uint64, programID string, traces []*trace.Trace) (payload []byte, compressed bool) {
	var buf []byte
	if n := len(hc.free); n > 0 {
		buf, hc.free = hc.free[n-1], hc.free[:n-1]
	}
	if buf != nil && !hc.compressing {
		// AppendBatch leaves dst as it was on error: the tag alone.
		payload, _ = trace.AppendBatch(appendSeqPrefix(buf, hc.session, seq), programID, traces)
		return payload, false
	}
	raw, err := trace.AppendBatch(hc.sealScratch[:0], programID, traces)
	if err != nil {
		return appendSeqPrefix(buf, hc.session, seq), false
	}
	hc.sealScratch = raw
	if hc.compressing && len(raw) >= compressMinBytes {
		if buf == nil {
			buf = make([]byte, 0, len(raw)/4+64)
		}
		comp := trace.CompressSlab(appendSeqPrefix(buf, hc.session, seq), raw)
		if len(comp) < len(raw) {
			return comp, true
		}
		buf = comp[:0]
	}
	if buf == nil {
		buf = make([]byte, 0, len(raw)+len(hc.session)+16)
	}
	return append(appendSeqPrefix(buf, hc.session, seq), raw...), false
}

// recycleLocked takes back the payload of a frame the hive acknowledged, for
// a later seal to reuse. The free list is bounded twice: at
// maxInflightFrames buffers, and at coalesceByteBudget per buffer, so a
// connection keeps at most maxInflightFrames × coalesceByteBudget bytes however
// large a frame it once sealed. A buffer already on the list (the same frame
// passed twice to one submit) is not listed again: two seals sharing it would
// overwrite each other.
func (hc *hiveConn) recycleLocked(p []byte) {
	if cap(p) == 0 || cap(p) > coalesceByteBudget || len(hc.free) == maxInflightFrames {
		return
	}
	for _, f := range hc.free {
		if &f[:1][0] == &p[:1][0] {
			return
		}
	}
	hc.free = append(hc.free, p[:0])
}

// seal turns every batch into a sequenced frame whose (session, seq) tag is
// assigned here, once, under the connection lock.
func (hc *hiveConn) seal(programID string, batches [][]*trace.Trace) []pod.SealedBatch {
	sealed := make([]pod.SealedBatch, len(batches))
	hc.mu.Lock()
	defer hc.mu.Unlock()
	// The hello decides only whether to compress. Sealing carries on without
	// it — uncompressed — and the submit that follows reports the dead link.
	_ = hc.ensureGreetedLocked()
	for i, batch := range batches {
		hc.seq++
		payload, compressed := hc.sealFrameLocked(hc.seq, programID, batch)
		sealed[i] = pod.SealedBatch{
			ProgramID:  programID,
			Count:      len(batch),
			Payload:    payload,
			Compressed: compressed,
		}
	}
	return sealed
}

// submit is one windowed drain attempt over the frames at positions idx of
// sealed, marking accepted, that retries once on a fresh connection after a
// transport failure. It holds the connection lock throughout and recycles
// what was acknowledged before letting go; busy backoff lives in
// Client.submitOwner, outside the lock.
func (hc *hiveConn) submit(sealed []pod.SealedBatch, idx []int, accepted []bool) error {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	defer hc.consumeLocked(sealed, idx, accepted)
	acked := 0
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := hc.dialLocked(); err != nil {
			return err
		}
		if err := hc.ensureGreetedLocked(); err != nil {
			return err
		}
		err, transport := hc.streamLocked(sealed, idx, &acked, accepted)
		if err == nil {
			return nil
		}
		if !transport {
			return err
		}
		lastErr = err
		_ = hc.conn.Close()
		hc.conn = nil
	}
	return hc.retryErrLocked(lastErr)
}

// consumeLocked recycles the payload of every acknowledged frame at
// positions idx and clears it from the caller's slice.
func (hc *hiveConn) consumeLocked(sealed []pod.SealedBatch, idx []int, accepted []bool) {
	for _, i := range idx {
		if accepted[i] && sealed[i].Payload != nil {
			hc.recycleLocked(sealed[i].Payload)
			sealed[i].Payload = nil
		}
	}
}

// streamLocked runs one windowed write-ahead pass over the unacknowledged
// suffix of the frames at positions idx (resuming at *acked): the suffix is
// cut into groups of up to coalesceDepth frames under a byte budget, every
// group ships as one MsgCoalesced mega-frame written with a single writev,
// and the server answers one mega-frame of inner acks per group, with up to
// maxInflightFrames groups in flight. *acked / accepted advance as acks
// arrive; ack semantics are per inner frame, which is what the exactly-once
// dedup and the resume-at-*acked retry rest on. The second return
// distinguishes transport failures (retryable on a fresh connection) from
// permanent ones (a server rejection is final).
func (hc *hiveConn) streamLocked(sealed []pod.SealedBatch, idx []int, acked *int, accepted []bool) (error, bool) {
	type span struct{ start, end int }
	groups := make([]span, 0, maxInflightFrames)
	head := 0
	sent := *acked
	for *acked < len(idx) {
		for sent < len(idx) && len(groups)-head < maxInflightFrames {
			end := sent
			size := 0
			for end < len(idx) && end-sent < coalesceDepth {
				fb := 5 + len(sealed[idx[end]].Payload)
				if end > sent && size+fb > coalesceByteBudget {
					break
				}
				size += fb
				end++
			}
			if err := hc.writeCoalescedLocked(sealed, idx[sent:end]); err != nil {
				return err, true
			}
			groups = append(groups, span{sent, end})
			sent = end
		}
		g := groups[head]
		head++
		if err, transport := hc.readGroupAck(sealed, idx[g.start:g.end], accepted); err != nil {
			if transport {
				return err, true
			}
			// The server rejected an inner frame but keeps serving: drain
			// the acks for groups already on the wire — later frames may
			// well have been ingested and must be marked accepted
			// (re-submitting them would double-count) — then surface the
			// first error.
			for head < len(groups) {
				g := groups[head]
				head++
				if _, transport := hc.readGroupAck(sealed, idx[g.start:g.end], accepted); transport {
					_ = hc.conn.Close()
					hc.conn = nil
					break
				}
			}
			return err, false
		}
		for *acked < len(idx) && accepted[idx[*acked]] {
			*acked++
		}
		if head == len(groups) {
			groups, head = groups[:0], 0
		}
	}
	return nil, false
}

// writeCoalescedLocked writes the frames at positions idx of sealed as one
// MsgCoalesced mega-frame with a single writev: the outer header, every
// inner header, and every payload go to the kernel as one vector, so the
// whole group costs one syscall and one packetizable burst.
func (hc *hiveConn) writeCoalescedLocked(sealed []pod.SealedBatch, idx []int) error {
	inner := 0
	for _, i := range idx {
		inner += 5 + len(sealed[i].Payload)
	}
	// Headers first, into one contiguous scratch: appending as we build the
	// vector would invalidate earlier sub-slices on growth.
	hdrs := binary.BigEndian.AppendUint32(hc.hdrScratch[:0], uint32(inner+1))
	hdrs = append(hdrs, byte(MsgCoalesced))
	for _, i := range idx {
		t := MsgSubmitBatchColumnar
		if sealed[i].Compressed {
			t = MsgSubmitBatchCompressed
		}
		hdrs = appendInnerHeader(hdrs, t, len(sealed[i].Payload))
	}
	bufs := append(hc.bufScratch[:0], hdrs[:5])
	for k, i := range idx {
		h := hdrs[5+k*5:]
		bufs = append(bufs, h[:5], sealed[i].Payload)
	}
	hc.hdrScratch, hc.bufScratch = hdrs, bufs
	// WriteTo consumes the vector it writes: hand it vec, a copy of the
	// slice header, so the scratch stays reusable.
	hc.vec = bufs
	_, err := hc.vec.WriteTo(hc.conn)
	return err
}

// readGroupAck reads the server's reply for one coalesced group and checks
// its inner acks against the frames at positions idx, marking accepted ones.
// A non-transport error is the first inner rejection (or a protocol
// violation); the caller decides whether to keep draining.
func (hc *hiveConn) readGroupAck(sealed []pod.SealedBatch, idx []int, accepted []bool) (error, bool) {
	respType, bp, err := readFramePooled(hc.conn, hc.ackHdr[:])
	if err != nil {
		return err, true
	}
	defer framePool.Put(bp)
	if respType != MsgCoalesced {
		return fmt.Errorf("coalesced group: %w", serverError(respType, *bp)), false
	}
	k := 0
	var firstErr error
	if err := forEachInner(*bp, func(t MsgType, inner []byte) error {
		if k >= len(idx) {
			return fmt.Errorf("%w: more inner acks than frames in group", ErrFrame)
		}
		if err := checkAck(t, inner, sealed[idx[k]].Count); err != nil {
			hc.noteRedirectLocked(err)
			if firstErr == nil {
				firstErr = err
			}
		} else {
			accepted[idx[k]] = true
		}
		k++
		return nil
	}); err != nil {
		return err, false
	}
	if k != len(idx) {
		return fmt.Errorf("%w: %d inner acks for %d frames in group", ErrFrame, k, len(idx)), false
	}
	return firstErr, false
}

// checkAck validates one submission's answer: the ack, or what refusal makes
// of anything else.
func checkAck(respType MsgType, resp []byte, want int) error {
	if respType != MsgAckBin {
		return refusal(respType, resp)
	}
	accepted, _, errMsg, err := decodeAckBin(resp)
	if err != nil {
		return refused("wire: bad ack: %v", err)
	}
	if errMsg != "" {
		return refused("wire: server: %s", errMsg)
	}
	if accepted != want {
		return refused("wire: server accepted %d of %d traces", accepted, want)
	}
	return nil
}

// serverError is the error a reply stands for when no typed refusal applies:
// what a MsgError says, or the unexpected type.
func serverError(respType MsgType, resp []byte) error {
	if respType == MsgError {
		if msg, err := decodeError(resp); err == nil && msg != "" {
			return refused("wire: server: %s", msg)
		}
	}
	return refused("wire: unexpected response type %d", respType)
}

// refusedError is a hive's answer that refuses a frame or a request: an
// error reply, an ack that does not accept, an answer that does not parse.
// The hive that answered would answer the same again, so a refusal is not a
// routing signal.
type refusedError struct{ msg string }

func (e *refusedError) Error() string { return e.msg }

// refused is fmt.Sprintf for a refusal.
func refused(format string, args ...any) error {
	return &refusedError{fmt.Sprintf(format, args...)}
}

// refusal is the error a reply stands for when it is not the answer the
// request asked for, submission and read alike: the typed error of a redirect
// (the program lives elsewhere) or a busy reply (not now).
func refusal(respType MsgType, resp []byte) error {
	switch respType {
	case MsgRedirect:
		re, err := decodeRedirect(resp)
		if err != nil {
			return refused("wire: bad redirect: %v", err)
		}
		return re
	case MsgBusy:
		retryAfterMs, reason, err := decodeBusy(resp)
		if err != nil {
			return refused("wire: bad busy reply: %v", err)
		}
		return &BusyError{RetryAfter: time.Duration(retryAfterMs) * time.Millisecond, Reason: reason}
	default:
		return serverError(respType, resp)
	}
}

// readLocked sends the request in hc.req and returns the payload of the
// answer of type want, which aliases hc.reply: the caller decodes it before
// letting go of mu. A redirect or busy reply comes back as its typed error.
func (hc *hiveConn) readLocked(reqType, want MsgType) ([]byte, error) {
	respType, resp, err := hc.callLocked(reqType, hc.req)
	if err != nil {
		return nil, err
	}
	if respType != want {
		err := refusal(respType, resp)
		hc.noteRedirectLocked(err)
		return nil, err
	}
	return resp, nil
}

// fixesSince asks this hive for programID's fixes past version. A hive
// that does not own programID answers with a *RedirectError naming the owner.
func (hc *hiveConn) fixesSince(programID string, version int) ([]fix.Fix, int, error) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	hc.req = appendRead(hc.req[:0], programID, version)
	resp, err := hc.readLocked(MsgGetFixes, MsgFixes)
	if err != nil {
		return nil, 0, err
	}
	fixes, version, err := decodeFixes(resp)
	if err != nil {
		return nil, 0, refused("wire: bad fixes reply: %v", err)
	}
	return fixes, version, nil
}

// guidance asks this hive for up to max test cases for programID; a
// non-owner redirects as for fixesSince.
func (hc *hiveConn) guidance(programID string, max int) ([]guidance.TestCase, error) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	hc.req = appendRead(hc.req[:0], programID, max)
	resp, err := hc.readLocked(MsgGetGuidance, MsgGuidance)
	if err != nil {
		return nil, err
	}
	cases, err := decodeGuidance(resp)
	if err != nil {
		return nil, refused("wire: bad guidance reply: %v", err)
	}
	return cases, nil
}
