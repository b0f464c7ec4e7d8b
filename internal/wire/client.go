package wire

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/pod"
	"repro/internal/ring"
	"repro/internal/trace"
)

// Client is a pod.HiveClient speaking the wire protocol to a remote hive.
// It lazily (re)connects, serializes requests, and surfaces server-side
// errors as Go errors.
//
// Every client carries a random session ID and a monotonically increasing
// frame sequence number. Submission frames are tagged with both, and a
// frame resent after a reconnect keeps its original tag, so a backend with
// a per-session dedup window (hive.Hive) ingests each batch exactly once no
// matter how many times the link drops mid-stream.
type Client struct {
	addr    string
	session string

	mu   sync.Mutex
	conn net.Conn
	// seq numbers submission frames; guarded by mu. The server's dedup
	// window is the exact set of applied seqs per session, so tags only
	// need to be unique and stable — frames may reach the server in any
	// order (concurrent streams on a shared client, parked frames
	// resubmitted drains later) without one frame's progress masking
	// another's.
	seq uint64

	// greeted and the fields below cache the hello exchange (guarded by mu):
	// before sealing or submitting frames the client says hello once per
	// session; a failed exchange is retried on the next seal or submit.
	greeted bool
	// compressing reports that sealed batches are DEFLATE-compressed:
	// forced, or the link looks far (see helloRTT).
	compressing bool
	// placement is the map the server advertised (nil when unsharded).
	// lastRedirect remembers the most recent MsgRedirect this client saw,
	// so a later retry-exhausted error can tell "owner moved" from "owner
	// down".
	placement    *ring.Map
	lastRedirect *RedirectError
	// helloRTT is the measured duration of the hello exchange on an
	// already-established connection — a free RTT probe. Compression
	// costs CPU on both ends, so it auto-engages only when the link is
	// far enough (compressRTTFloor) for bandwidth to be the bottleneck;
	// loopback fleets skip it and keep their syscall-bound throughput.
	helloRTT time.Duration
	// helloCount counts hello exchanges this client has run; tests use it
	// to prove busy replies do not trigger hello storms.
	helloCount int

	// rng is the per-client state of the backoff jitter stream.
	rng atomic.Uint64

	// sealScratch is sealFrameLocked's reusable columnar encode buffer for
	// the bytes it compresses or copies into a fresh payload (guarded by
	// mu).
	sealScratch []byte
	// free holds the payload buffers of frames the hive acknowledged, for
	// sealFrameLocked to seal into again (guarded by mu). recycleLocked
	// keeps at most maxInflightFrames of them, none larger than
	// coalesceByteBudget.
	free [][]byte
	// hdrScratch and bufScratch are writeCoalesced's reusable header and
	// vector backing arrays (guarded by mu).
	hdrScratch []byte
	bufScratch net.Buffers
	// req, frame and reply are the buffers of the request/response
	// exchanges — hello, fixes, guidance — (guarded by mu): the request
	// payload, the frame it is written in, and the reply payload read back.
	// A reply is decoded into values that share none of its bytes before
	// the lock is let go, and reply keeps at most maxKeptReply bytes.
	req, frame, reply []byte
	// ackHdr is readGroupAck's frame header (guarded by mu).
	ackHdr [5]byte

	// ForceCompress compresses on any link, ignoring the RTT floor (benches
	// and tests; real WAN links trip the floor on their own). Set before
	// first use.
	ForceCompress bool
	// RetryBase and RetryCap bound the jittered exponential backoff used
	// after MsgBusy replies (defaults defaultRetryBase / defaultRetryCap).
	// Set before first use.
	RetryBase time.Duration
	RetryCap  time.Duration
}

var _ pod.HiveClient = (*Client)(nil)
var _ pod.SealedStreamer = (*Client)(nil)

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

// Dial creates a client for the hive at addr. The connection is established
// lazily on first use.
func Dial(addr string) *Client {
	return &Client{addr: addr, session: newSessionID()}
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

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// callLocked performs one request/response exchange: payload (normally
// c.req) goes out as one write, and the reply is read into c.reply, which
// the returned payload aliases until the next exchange. On transport errors
// it drops the connection and retries once with a fresh one; the final error
// wraps the last underlying transport/decode failure instead of a generic
// unreachability string.
func (c *Client) callLocked(reqType MsgType, payload []byte) (MsgType, []byte, error) {
	if err := checkFrameSize(uint64(len(payload)) + 1); err != nil {
		// Oversized payload fails on any connection; don't burn the
		// retry or mask the cause as unreachability.
		return 0, nil, err
	}
	c.frame = append(appendInnerHeader(c.frame[:0], reqType, len(payload)), payload...)
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := c.dialLocked(); err != nil {
			return 0, nil, err
		}
		if _, err := c.conn.Write(c.frame); err != nil {
			lastErr = fmt.Errorf("write: %w", err)
			_ = c.conn.Close()
			c.conn = nil
			continue
		}
		respType, resp, err := readFrameInto(c.conn, c.reply[:0])
		if err != nil {
			lastErr = fmt.Errorf("read: %w", err)
			_ = c.conn.Close()
			c.conn = nil
			continue
		}
		if cap(resp) <= maxKeptReply {
			c.reply = resp
		}
		return respType, resp, nil
	}
	return 0, nil, c.retryErrLocked(lastErr)
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
func (c *Client) dialLocked() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	return nil
}

// retryErrLocked wraps the final transport error after a failed retry.
// The message carries what the hello exchange settled and, on a sharded
// fleet, the last redirect this client saw plus the placement version the
// hello advertised, so an operator can tell "owner moved" (a redirect names
// the new owner) from "owner down" (no redirect; the placement still points
// here) straight from the error string.
func (c *Client) retryErrLocked(lastErr error) error {
	link := "no hello answered"
	switch {
	case c.greeted && c.compressing:
		link = "compressing"
	case c.greeted:
		link = "not compressing"
	}
	routed := ""
	if c.lastRedirect != nil {
		routed = fmt.Sprintf("; last redirect: program %s -> %s at placement v%d",
			c.lastRedirect.ProgramID, c.lastRedirect.Owner, c.lastRedirect.Version)
	} else if c.placement != nil {
		routed = fmt.Sprintf("; no redirect seen at placement v%d", c.placement.Version())
	}
	return fmt.Errorf("wire: %s unreachable after retry (%s%s): %w", c.addr, link, routed, lastErr)
}

// noteRedirectLocked remembers the most recent redirect for error
// reporting and hands the advertised placement to PlacementMap readers.
func (c *Client) noteRedirectLocked(err error) {
	var re *RedirectError
	if errors.As(err, &re) {
		c.lastRedirect = re
		if m := placementFromPayload(re.Placement); m != nil {
			if c.placement == nil || m.Version() > c.placement.Version() {
				c.placement = m
			}
		}
	}
}

// ensureGreetedLocked runs the hello exchange once per client: name the
// protocol version, take the placement the server advertises. A failure —
// dial, transport, or a peer that speaks another version — is returned and
// leaves the client un-greeted, so the next seal or submit retries. The
// exchange doubles as an RTT probe (the connection is established first, so
// the measurement is one request/response round trip), which decides whether
// compression is worth its CPU.
func (c *Client) ensureGreetedLocked() error {
	if c.greeted {
		return nil
	}
	c.req = AppendHello(c.req[:0])
	if err := c.dialLocked(); err != nil {
		return err
	}
	start := time.Now()
	respType, resp, err := c.callLocked(MsgHello, c.req)
	if err != nil {
		return err
	}
	c.helloRTT = time.Since(start)
	c.helloCount++
	if respType != MsgHelloAck {
		// A server of another version says so in a MsgError naming both.
		return fmt.Errorf("wire: %s refused the hello of protocol version %d: %w", c.addr, ProtocolVersion, serverError(respType, resp))
	}
	version, placement, err := decodeHelloAck(resp)
	if err != nil {
		return fmt.Errorf("wire: %s: bad hello ack: %w", c.addr, err)
	}
	if version != ProtocolVersion {
		return fmt.Errorf("wire: %s speaks protocol version %d, this client speaks version %d", c.addr, version, ProtocolVersion)
	}
	c.greeted = true
	c.placement = placementFromPayload(placement)
	c.compressing = c.ForceCompress || c.helloRTT >= compressRTTFloor
	return nil
}

// Handshake eagerly dials and says hello. Submission paths do so
// lazily; routers call this up front so the placement map is available
// before the first frame is sealed.
func (c *Client) Handshake() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ensureGreetedLocked()
}

// PlacementMap returns the placement advertised by the server in its hello
// ack, or nil when the server is unsharded or unreachable. Says hello on
// first use.
func (c *Client) PlacementMap() *ring.Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.ensureGreetedLocked() // an unreachable server advertises nothing
	return c.placement
}

// RefreshPlacement forces a fresh hello exchange and returns the
// placement it advertised. Routers call this after a transport error to
// learn about membership changes the old map predates.
func (c *Client) RefreshPlacement() *ring.Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.greeted = false
	_ = c.ensureGreetedLocked() // an unreachable server advertises nothing
	return c.placement
}

// SubmitTraces implements pod.HiveClient for callers that hold a loose
// batch (a pod flushing without a bound buffer, the baselines): see
// submitGrouped.
func (c *Client) SubmitTraces(traces []*trace.Trace) error {
	return submitGrouped(c, traces)
}

// submitGrouped is SubmitTraces over a sealed streamer: the batch is
// grouped by program (first-appearance order, arrival order within a
// program), every group is sealed into one frame, and the frames drain
// through SubmitSealed. The frames carry their (session, seq) tags from the
// start, so the drain's transparent retry after a lost ack cannot
// double-ingest. Each program's group is ingested whole or not at all; a
// call spanning programs is not atomic — on error the groups the hive
// acknowledged stay ingested.
func submitGrouped(ss pod.SealedStreamer, traces []*trace.Trace) error {
	var sealed []pod.SealedBatch
	for _, g := range trace.GroupByProgram(traces) {
		sealed = append(sealed, ss.SealTraceBatches(g.ProgramID, [][]*trace.Trace{g.Traces})...)
	}
	_, err := ss.SubmitSealed(sealed)
	return err
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
func (c *Client) sealFrameLocked(seq uint64, programID string, traces []*trace.Trace) (payload []byte, compressed bool) {
	var buf []byte
	if n := len(c.free); n > 0 {
		buf, c.free = c.free[n-1], c.free[:n-1]
	}
	if buf != nil && !c.compressing {
		// AppendBatch leaves dst as it was on error: the tag alone.
		payload, _ = trace.AppendBatch(appendSeqPrefix(buf, c.session, seq), programID, traces)
		return payload, false
	}
	raw, err := trace.AppendBatch(c.sealScratch[:0], programID, traces)
	if err != nil {
		return appendSeqPrefix(buf, c.session, seq), false
	}
	c.sealScratch = raw
	if c.compressing && len(raw) >= compressMinBytes {
		if buf == nil {
			buf = make([]byte, 0, len(raw)/4+64)
		}
		comp := trace.CompressSlab(appendSeqPrefix(buf, c.session, seq), raw)
		if len(comp) < len(raw) {
			return comp, true
		}
		buf = comp[:0]
	}
	if buf == nil {
		buf = make([]byte, 0, len(raw)+len(c.session)+16)
	}
	return append(appendSeqPrefix(buf, c.session, seq), raw...), false
}

// recycleLocked takes back the payload of a frame the hive acknowledged, for
// a later seal to reuse. The free list is bounded twice: at
// maxInflightFrames buffers, and at coalesceByteBudget per buffer, so a
// client keeps at most maxInflightFrames × coalesceByteBudget bytes however
// large a frame it once sealed. A buffer already on the list (the same frame
// passed twice to one submit) is not listed again: two seals sharing it would
// overwrite each other.
func (c *Client) recycleLocked(p []byte) {
	if cap(p) == 0 || cap(p) > coalesceByteBudget || len(c.free) == maxInflightFrames {
		return
	}
	for _, f := range c.free {
		if &f[:1][0] == &p[:1][0] {
			return
		}
	}
	c.free = append(c.free, p[:0])
}

// SealTraceBatches implements pod.SealedStreamer: every batch becomes a
// sequenced frame whose (session, seq) tag is assigned here, once, under
// the client lock. A sealed frame is a durable exactly-once
// identity until it is acknowledged: SubmitSealed re-sends the payload
// verbatim however many times (and across however many drains) it takes, so
// a dedup-capable backend never applies it twice — in any submission order,
// because the backend's dedup window is the exact applied set per session,
// not an in-order high-water mark.
func (c *Client) SealTraceBatches(programID string, batches [][]*trace.Trace) []pod.SealedBatch {
	sealed := make([]pod.SealedBatch, len(batches))
	c.mu.Lock()
	defer c.mu.Unlock()
	// The hello decides only whether to compress. Sealing carries on without
	// it — uncompressed — and the submit that follows reports the dead link.
	_ = c.ensureGreetedLocked()
	for i, batch := range batches {
		c.seq++
		payload, compressed := c.sealFrameLocked(c.seq, programID, batch)
		sealed[i] = pod.SealedBatch{
			ProgramID:  programID,
			Count:      len(batch),
			Payload:    payload,
			Compressed: compressed,
		}
	}
	return sealed
}

// SubmitSealed implements pod.SealedStreamer: streams previously sealed
// frames as mega-frames, back-to-back without waiting for acks (bounded by
// maxInflightFrames), reading the pipelined acks in frame order, so a drain
// of n frames costs ~n/(depth × window) round trips instead of n. The
// returned flags report, per frame, whether the server acknowledged it — on
// error a caller re-submits exactly the unacknowledged frames, never one
// the server already ingested.
//
// A transport failure drops the connection and retries once on a fresh one,
// resuming after the last acknowledged frame. Frames written but unacked
// when the connection died keep their original (session, seq) tags on the
// resend — they were sealed before the first attempt — so a dedup-capable
// backend (hive.Hive) acknowledges the ones it already ingested without
// applying them again: resubmission is exactly-once end to end, within a
// drain and across drains. The final error after a failed retry wraps the
// last underlying transport failure.
//
// A MsgBusy reply (the server declined a frame under overload) is not a
// failure: the drain backs off — jittered exponential, floored at the
// server's retry-after hint — and resubmits the unaccepted frames
// verbatim, up to defaultBusyRetries rounds, before surfacing the busy error.
//
// SubmitSealed consumes every frame the hive acknowledged, on error too: its
// payload goes back to this client's free list for a later seal, and the
// caller's Payload is set to nil. An unacknowledged frame is left as it was.
func (c *Client) SubmitSealed(sealed []pod.SealedBatch) ([]bool, error) {
	accepted := make([]bool, len(sealed))
	if err := checkSealed(sealed); err != nil {
		return accepted, err
	}
	if len(sealed) == 0 {
		return accepted, nil
	}
	var err error
	for round := 0; ; round++ {
		err = c.submitSealedRound(sealed, accepted)
		var be *BusyError
		if err == nil || !errors.As(err, &be) || round >= defaultBusyRetries {
			c.consume(sealed, accepted)
			return accepted, err
		}
		// The hive is shedding, not down: back off (jittered exponential,
		// floored at the server's hint) and resubmit only the unaccepted
		// frames — verbatim, so the dedup window stays exact.
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

// consume recycles the payload of every acknowledged frame and clears it
// from the caller's slice.
func (c *Client) consume(sealed []pod.SealedBatch, accepted []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, ok := range accepted {
		if ok {
			c.recycleLocked(sealed[i].Payload)
			sealed[i].Payload = nil
		}
	}
}

// submitSealedRound runs one drain pass over the frames accepted has not
// yet marked, folding the sub-results back positionally. The first round
// covers everything and pays no copying; busy-retry rounds re-drain the
// (typically short) unaccepted remainder.
func (c *Client) submitSealedRound(sealed []pod.SealedBatch, accepted []bool) error {
	pending := make([]int, 0, len(sealed))
	for i, ok := range accepted {
		if !ok {
			pending = append(pending, i)
		}
	}
	if len(pending) == len(sealed) {
		return c.submitSealedOnce(sealed, accepted)
	}
	sub := make([]pod.SealedBatch, len(pending))
	for j, i := range pending {
		sub[j] = sealed[i]
	}
	subAcc := make([]bool, len(sub))
	err := c.submitSealedOnce(sub, subAcc)
	for j, i := range pending {
		if subAcc[j] {
			accepted[i] = true
		}
	}
	return err
}

// submitSealedOnce is one windowed drain attempt over sealed, marking
// accepted positionally. It holds the client lock throughout; busy
// backoff lives in SubmitSealed, outside the lock.
func (c *Client) submitSealedOnce(sealed []pod.SealedBatch, accepted []bool) error {
	payloads := make([][]byte, len(sealed))
	counts := make([]int, len(sealed))
	msgs := make([]MsgType, len(sealed))
	for i, sb := range sealed {
		payloads[i] = sb.Payload
		counts[i] = sb.Count
		msgs[i] = MsgSubmitBatchColumnar
		if sb.Compressed {
			msgs[i] = MsgSubmitBatchCompressed
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	acked := 0
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := c.dialLocked(); err != nil {
			return err
		}
		if err := c.ensureGreetedLocked(); err != nil {
			return err
		}
		err, transport := c.streamCoalescedLocked(msgs, payloads, counts, &acked, accepted)
		if err == nil {
			return nil
		}
		if !transport {
			return err
		}
		lastErr = err
		_ = c.conn.Close()
		c.conn = nil
	}
	return c.retryErrLocked(lastErr)
}

// streamCoalescedLocked runs one windowed write-ahead pass over the
// unacknowledged suffix of payloads (resuming at *acked): the suffix is cut
// into groups of up to coalesceDepth frames under a byte budget, every
// group ships as one MsgCoalesced mega-frame written with a single writev,
// and the server answers one mega-frame of inner acks per group, with up to
// maxInflightFrames groups in flight. *acked / accepted advance as acks
// arrive; ack semantics are per inner frame, which is what the exactly-once
// dedup and the resume-at-*acked retry rest on. The second return
// distinguishes transport failures (retryable on a fresh connection) from
// permanent ones (a server rejection is final).
func (c *Client) streamCoalescedLocked(msgs []MsgType, payloads [][]byte, counts []int, acked *int, accepted []bool) (error, bool) {
	type span struct{ start, end int }
	groups := make([]span, 0, maxInflightFrames)
	head := 0
	sent := *acked
	for *acked < len(payloads) {
		for sent < len(payloads) && len(groups)-head < maxInflightFrames {
			end := sent
			size := 0
			for end < len(payloads) && end-sent < coalesceDepth {
				fb := 5 + len(payloads[end])
				if end > sent && size+fb > coalesceByteBudget {
					break
				}
				size += fb
				end++
			}
			var err error
			c.hdrScratch, c.bufScratch, err = writeCoalesced(c.conn, msgs, payloads, sent, end, c.hdrScratch, c.bufScratch)
			if err != nil {
				return err, true
			}
			groups = append(groups, span{sent, end})
			sent = end
		}
		g := groups[head]
		head++
		if err, transport := c.readGroupAck(counts, accepted, g.start, g.end); err != nil {
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
				if _, transport := c.readGroupAck(counts, accepted, g.start, g.end); transport {
					_ = c.conn.Close()
					c.conn = nil
					break
				}
			}
			return err, false
		}
		for *acked < len(payloads) && accepted[*acked] {
			*acked++
		}
		if head == len(groups) {
			groups, head = groups[:0], 0
		}
	}
	return nil, false
}

// readGroupAck reads the server's reply for one coalesced group and checks
// its inner acks against frames [start, end), marking accepted ones. A
// non-transport error is the first inner rejection (or a protocol
// violation); the caller decides whether to keep draining.
func (c *Client) readGroupAck(counts []int, accepted []bool, start, end int) (error, bool) {
	respType, bp, err := readFramePooled(c.conn, c.ackHdr[:])
	if err != nil {
		return err, true
	}
	defer framePool.Put(bp)
	if respType != MsgCoalesced {
		return fmt.Errorf("coalesced group: %w", serverError(respType, *bp)), false
	}
	i := start
	var firstErr error
	if err := forEachInner(*bp, func(t MsgType, inner []byte) error {
		if i >= end {
			return fmt.Errorf("%w: more inner acks than frames in group", ErrFrame)
		}
		if err := checkAck(t, inner, counts[i]); err != nil {
			c.noteRedirectLocked(err)
			if firstErr == nil {
				firstErr = err
			}
		} else {
			accepted[i] = true
		}
		i++
		return nil
	}); err != nil {
		return err, false
	}
	if i != end {
		return fmt.Errorf("%w: %d inner acks for %d frames in group", ErrFrame, i-start, end-start), false
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
		return fmt.Errorf("wire: bad ack: %w", err)
	}
	if errMsg != "" {
		return errors.New("wire: server: " + errMsg)
	}
	if accepted != want {
		return fmt.Errorf("wire: server accepted %d of %d traces", accepted, want)
	}
	return nil
}

// serverError is the error a reply stands for when no typed refusal applies:
// what a MsgError says, or the unexpected type.
func serverError(respType MsgType, resp []byte) error {
	if respType == MsgError {
		if msg, err := decodeError(resp); err == nil && msg != "" {
			return errors.New("wire: server: " + msg)
		}
	}
	return fmt.Errorf("wire: unexpected response type %d", respType)
}

// refusal is the error a reply stands for when it is not the answer the
// request asked for, submission and read alike: the typed error of a redirect
// (the program lives elsewhere) or a busy reply (not now).
func refusal(respType MsgType, resp []byte) error {
	switch respType {
	case MsgRedirect:
		re, err := decodeRedirect(resp)
		if err != nil {
			return fmt.Errorf("wire: bad redirect: %w", err)
		}
		return re
	case MsgBusy:
		retryAfterMs, reason, err := decodeBusy(resp)
		if err != nil {
			return fmt.Errorf("wire: bad busy reply: %w", err)
		}
		return &BusyError{RetryAfter: time.Duration(retryAfterMs) * time.Millisecond, Reason: reason}
	default:
		return serverError(respType, resp)
	}
}

// readLocked sends the request in c.req and returns the payload of the
// answer of type want, which aliases c.reply: the caller decodes it before
// letting go of mu. A redirect or busy reply comes back as its typed error.
func (c *Client) readLocked(reqType, want MsgType) ([]byte, error) {
	respType, resp, err := c.callLocked(reqType, c.req)
	if err != nil {
		return nil, err
	}
	if respType != want {
		err := refusal(respType, resp)
		c.noteRedirectLocked(err)
		return nil, err
	}
	return resp, nil
}

// FixesSince implements pod.HiveClient. On a sharded fleet a hive that does
// not own programID answers with a *RedirectError naming the owner.
func (c *Client) FixesSince(programID string, version int) ([]fix.Fix, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req = appendRead(c.req[:0], programID, version)
	resp, err := c.readLocked(MsgGetFixes, MsgFixes)
	if err != nil {
		return nil, 0, err
	}
	fixes, version, err := decodeFixes(resp)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: bad fixes reply: %w", err)
	}
	return fixes, version, nil
}

// Guidance implements pod.HiveClient; a non-owner redirects as for FixesSince.
func (c *Client) Guidance(programID string, max int) ([]guidance.TestCase, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req = appendRead(c.req[:0], programID, max)
	resp, err := c.readLocked(MsgGetGuidance, MsgGuidance)
	if err != nil {
		return nil, err
	}
	cases, err := decodeGuidance(resp)
	if err != nil {
		return nil, fmt.Errorf("wire: bad guidance reply: %w", err)
	}
	return cases, nil
}
