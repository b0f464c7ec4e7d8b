package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pod"
	"repro/internal/ring"
	"repro/internal/trace"
)

// ingestQueueDepth bounds the frames a connection may have queued between
// its reader and its worker. A client pipelining submissions keeps reading
// ahead of decoding up to this depth; beyond it the reader applies
// backpressure to that connection only — other connections have their own
// queues and keep ingesting.
const ingestQueueDepth = 64

// Server exposes a pod.HiveClient backend that also implements
// pod.ColumnarSubmitter (normally *hive.Hive) over TCP.
//
// Each connection is served by a two-stage pipeline: the connection
// goroutine only reads frames and hands them to a per-connection worker
// through a bounded queue; the worker decodes payloads, dispatches to the
// backend, and writes replies in request order (pipelined acks). Decoding
// and backend calls therefore overlap with socket reads, and a slow or
// blocked connection stalls only itself.
type Server struct {
	backend pod.HiveClient
	// sub is backend's ingest method, resolved once at construction; nil
	// when the backend has none, which Listen refuses.
	sub pod.ColumnarSubmitter
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup

	// placeMu guards the sharding state: the placement map this hive is a
	// member of and its own node name within it. Both empty on an unsharded
	// server.
	placeMu   sync.RWMutex
	placement *ring.Map
	selfNode  string

	// Logf receives connection-level errors; defaults to log.Printf. Set it
	// before Serve.
	Logf func(format string, args ...any)

	// Admission, when non-nil, arms the overload protections: per-session
	// token-bucket rate limits answered with MsgBusy, per-connection
	// queued-byte backpressure feeding the backend's load-shedding pressure
	// gauge, progress-based slow-loris frame deadlines, and accept-time caps
	// on total / half-open connections. Set before Listen. Nil — the
	// default — costs one pointer check per frame, keeping the loopback
	// fast path unchanged.
	Admission *Admission

	// adm is the runtime admission state, built from Admission at Listen.
	adm *admissionState

	// writers holds the reply writers no connection is writing a reply
	// through, for the next to Reset onto (guarded by mu; at most
	// maxIdleWriters).
	writers []*bufio.Writer

	// readOnlyBusy counts submissions refused because the backend flipped a
	// program read-only after persistent journal write failures (disk full,
	// dying device). It lives on the Server — not admissionState — because
	// the read-only breaker is a durability condition, not an overload one:
	// it must be reported even when admission control is not configured.
	readOnlyBusy atomic.Int64
}

// connState is the per-connection admission state shared between a
// connection's reader and its worker.
type connState struct {
	// key is the admission bucket key for frames that carry no session:
	// the connection's remote address.
	key string

	// qMu/qCond/qBytes account the frame-payload bytes queued between this
	// connection's reader and its worker. The reader blocks past the
	// configured per-connection budget — byte-granular backpressure on top
	// of the frame-count queue depth. qMu is a leaf lock (rank 50 in the
	// lockdiscipline order); only touched when admission is configured.
	qMu    sync.Mutex
	qCond  *sync.Cond
	qBytes int64

	// hdr is the reader's frame header.
	hdr [5]byte

	// out is the worker's scratch for the payload of a reply other than an
	// ack: the reply is copied into the connection's writer, or into a
	// mega-frame's reply buffer, before the next one is built. send keeps
	// at most maxKeptReply bytes of it between replies.
	out []byte
}

// send writes the reply built in cs.out as a frame of type t. A buffer that
// one large reply — a fixes reply from version 0 — grew past maxKeptReply is
// let go, so an open connection does not hold its largest reply for life.
func (cs *connState) send(w io.Writer, t MsgType) error {
	err := WriteFrame(w, t, cs.out)
	if cap(cs.out) > maxKeptReply {
		cs.out = nil
	}
	return err
}

// replyWriterSize is the buffer of a connection's reply writer.
const replyWriterSize = 32 << 10

// maxIdleWriters bounds the reply writers a server keeps for connections to
// come: 64 × 32 KiB.
const maxIdleWriters = 64

// takeWriter returns a reply writer for conn: one an idle or closed
// connection handed back, Reset onto conn, or a new one. A fleet that
// redials — a restarted pod, a reconnect after a dropped link — then costs
// the server no new 32 KiB buffer per connection, even where the new
// connection is served before the old one is closed.
func (s *Server) takeWriter(conn net.Conn) *bufio.Writer {
	s.mu.Lock()
	var bw *bufio.Writer
	if n := len(s.writers); n > 0 {
		bw, s.writers = s.writers[n-1], s.writers[:n-1]
	}
	s.mu.Unlock()
	if bw == nil {
		return bufio.NewWriterSize(conn, replyWriterSize)
	}
	bw.Reset(conn)
	return bw
}

// putWriter keeps the writer of a connection that has no reply to write.
// Whatever it still buffered is dropped, and it holds no reference to the
// connection.
func (s *Server) putWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	s.mu.Lock()
	if len(s.writers) < maxIdleWriters {
		s.writers = append(s.writers, bw)
	}
	s.mu.Unlock()
}

// framePool recycles read-side frame payload buffers: a frame is read into
// a pooled buffer, queued to the connection worker, and recycled once its
// dispatch completes (handlers must not retain payload bytes — decoded
// traces and views copy or are consumed before return). The pool stores
// *[]byte boxes; the box travels with the request so recycling never
// re-boxes the slice header.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// readFramePooled reads one frame, its header into hdr (the reader's own 5
// bytes) and its payload into a pooled buffer, taken only once the header
// has arrived: a connection idle between frames holds none. The returned box
// owns the payload; put it back into framePool when the frame is fully
// handled.
func readFramePooled(r io.Reader, hdr []byte) (MsgType, *[]byte, error) {
	t, size, err := readFrameHeader(r, hdr)
	if err != nil {
		return 0, nil, err
	}
	return readFrameBody(r, t, size)
}

func readFrameBody(r io.Reader, t MsgType, size int) (MsgType, *[]byte, error) {
	bp := framePool.Get().(*[]byte)
	buf := *bp
	if cap(buf) < size {
		buf = make([]byte, size)
	} else {
		buf = buf[:size]
	}
	*bp = buf
	if _, err := io.ReadFull(r, buf); err != nil {
		framePool.Put(bp)
		return 0, nil, err
	}
	return t, bp, nil
}

// NewServer wraps backend, which must also implement pod.ColumnarSubmitter —
// the one method submissions are ingested through (Listen reports a backend
// without it).
func NewServer(backend pod.HiveClient) *Server {
	sub, _ := backend.(pod.ColumnarSubmitter)
	return &Server{
		backend: backend,
		sub:     sub,
		conns:   make(map[net.Conn]bool),
		Logf:    log.Printf,
	}
}

// Listen binds the address ("127.0.0.1:0" for an ephemeral port) and starts
// serving in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	if s.sub == nil {
		return "", fmt.Errorf("wire: listen: backend %T has no SubmitColumnarSession method (pod.ColumnarSubmitter), so it cannot ingest submission frames", s.backend)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen: %w", err)
	}
	if s.Admission != nil {
		s.adm = newAdmissionState(*s.Admission)
		if s.adm.cfg.TotalQueueBytes > 0 {
			// Hand the backend a live ingest-pressure gauge: the hive's
			// load-shedding watermark prices batches against it without the
			// hive ever reading clocks or queues itself.
			if sink, ok := s.backend.(pod.PressureSink); ok {
				sink.SetPressureSource(s.adm.pressure)
			}
		}
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// AdmissionStats snapshots the admission-control counters (zero value
// when no Admission config is armed).
func (s *Server) AdmissionStats() AdmissionStats {
	var st AdmissionStats
	if s.adm != nil {
		st = s.adm.stats()
	}
	// The read-only breaker reports even on servers without admission
	// control: it signals disk faults, not overload.
	st.ReadOnlyBusy = s.readOnlyBusy.Load()
	return st
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if a := s.adm; a != nil {
			// Hard caps are enforced at accept, before the connection costs
			// anything: a full house or a half-open flood (slow loris,
			// scanners) is turned away with a bare close.
			if (a.cfg.MaxConns > 0 && a.conns.Load() >= a.cfg.MaxConns) ||
				(a.cfg.MaxHalfOpen > 0 && a.halfOpen.Load() >= a.cfg.MaxHalfOpen) {
				a.connsRejected.Add(1)
				_ = conn.Close()
				continue
			}
			a.conns.Add(1)
			a.halfOpen.Add(1)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			if a := s.adm; a != nil {
				a.conns.Add(-1)
				a.halfOpen.Add(-1)
			}
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// SetPlacement installs (or replaces) the placement map this server is a
// member of; self is this hive's node name within it (the address peers
// and clients dial). From the next frame on, submissions and reads for
// programs the map assigns elsewhere are redirected, and hello acks advertise
// the map. Passing nil reverts to unsharded behavior. Safe to call while
// serving — a rebalance is exactly that.
func (s *Server) SetPlacement(m *ring.Map, self string) {
	s.placeMu.Lock()
	s.placement = m
	s.selfNode = self
	s.placeMu.Unlock()
}

// placementSnapshot reads the current sharding state.
func (s *Server) placementSnapshot() (*ring.Map, string) {
	s.placeMu.RLock()
	defer s.placeMu.RUnlock()
	return s.placement, s.selfNode
}

// routeFor resolves a program's owner under the current placement.
// local is true when this server owns it — or when no placement is set,
// which is the unsharded fast path.
func (s *Server) routeFor(programID string) (owner string, local bool, pl *ring.Map) {
	pl, self := s.placementSnapshot()
	if pl == nil {
		return "", true, nil
	}
	owner = pl.Owner(programID)
	return owner, owner == "" || owner == self, pl
}

// placementPayload converts a ring.Map to its wire form.
func placementPayload(m *ring.Map) *PlacementPayload {
	if m == nil {
		return nil
	}
	return &PlacementPayload{Version: m.Version(), Nodes: m.Nodes(), VNodes: m.VNodes(), Seed: m.Seed()}
}

// placementFromPayload rebuilds the ring from its wire form.
func placementFromPayload(p *PlacementPayload) *ring.Map {
	if p == nil {
		return nil
	}
	return ring.NewVersion(p.Version, p.Nodes, p.VNodes, p.Seed)
}

// redirect is the one answer to a frame — submission or read — for a program
// the placement assigns elsewhere: nothing was applied or looked up, the
// reply names the owner under this server's map and carries the map, and the
// client owns going there (a submission is resent verbatim). A server never
// dials another hive, so two members that disagree on placement cost a
// client one bounded round trip each, never a relay between them.
func (cs *connState) redirect(w io.Writer, programID, owner string, pl *ring.Map) error {
	cs.out = appendRedirect(cs.out[:0], programID, owner, placementPayload(pl))
	return cs.send(w, MsgRedirect)
}

// replyError answers a request with MsgError.
func (cs *connState) replyError(w io.Writer, msg string) error {
	cs.out = appendError(cs.out[:0], msg)
	return cs.send(w, MsgError)
}

// replyBusy answers a submission with MsgBusy: not applied, resubmit after
// the hint.
func (cs *connState) replyBusy(w io.Writer, retryAfter time.Duration, reason string) error {
	cs.out = appendBusy(cs.out[:0], int64(retryAfter/time.Millisecond), reason)
	return cs.send(w, MsgBusy)
}

// Close stops the listener and all connections, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

// request is one frame in flight between a connection's reader and its
// worker. payload is a pooled buffer box; the worker recycles it after
// dispatch.
type request struct {
	msgType MsgType
	payload *[]byte
	// size is the frame payload size for queued-byte accounting; recorded
	// at enqueue because handlers may grow the pooled buffer.
	size int
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	adm := s.adm
	established := false
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		if adm != nil {
			adm.conns.Add(-1)
			if !established {
				adm.halfOpen.Add(-1)
			}
		}
	}()

	// Worker: decode, dispatch, reply — in request order, off the
	// connection goroutine. Replies coalesce through a buffered writer
	// that flushes whenever the queue runs dry (a pipelining client gets
	// its acks in bursts, not one syscall each). On a handler error the
	// worker closes the connection (unblocking the reader) and drains the
	// queue so the reader can never block on a send with no receiver.
	cs := &connState{key: conn.RemoteAddr().String()}
	cs.qCond = sync.NewCond(&cs.qMu)
	reqs := make(chan request, ingestQueueDepth)
	workerDone := make(chan struct{})
	// release returns a dispatched (or drained) frame's bytes to the queue
	// budget and wakes a reader parked on the per-connection cap. Every
	// path that consumes a request — normal dispatch, bail drain — must
	// release, or the pressure gauge sticks high after the burst passes.
	release := func(n int) {
		if adm == nil || n == 0 {
			return
		}
		adm.queued.Add(int64(-n))
		cs.qMu.Lock()
		cs.qBytes -= int64(n)
		cs.qCond.Signal()
		cs.qMu.Unlock()
	}
	go func() {
		defer close(workerDone)
		// The reply writer is held only while replies are owed: taken for the
		// first request after the queue ran dry and handed back once a flush
		// leaves it empty. An idle connection — a redialled pod's old one
		// whose EOF is not read yet — holds none.
		var bw *bufio.Writer
		defer func() {
			if bw != nil {
				s.putWriter(bw)
			}
		}()
		bail := func(what string, err error) {
			s.Logf("wire: %s for %s: %v", what, conn.RemoteAddr(), err)
			_ = conn.Close()
			for req := range reqs {
				framePool.Put(req.payload)
				release(req.size)
			}
		}
		for req := range reqs {
			if bw == nil {
				bw = s.takeWriter(conn)
			}
			var err error
			if req.msgType == MsgCoalesced {
				// Mega-frames answer through the connection itself: the
				// whole group of inner replies goes out as one writev.
				err = s.handleCoalesced(cs, conn, bw, *req.payload)
			} else {
				err = s.dispatch(cs, bw, req.msgType, *req.payload)
			}
			framePool.Put(req.payload)
			release(req.size)
			if err != nil {
				bail(fmt.Sprintf("handle %v", req.msgType), err)
				return
			}
			if len(reqs) == 0 {
				if err := bw.Flush(); err != nil {
					bail("flush", err)
					return
				}
				s.putWriter(bw)
				bw = nil
			}
		}
	}()

	// Reader: the connection goroutine only reads frames; backpressure is
	// the bounded queue — frame-count always, queued bytes when admission
	// is configured.
	for {
		if adm != nil && adm.cfg.ConnQueueBytes > 0 {
			cs.qMu.Lock()
			for cs.qBytes > adm.cfg.ConnQueueBytes {
				cs.qCond.Wait()
			}
			cs.qMu.Unlock()
		}
		msgType, payload, err := s.readConnFrame(cs, conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.Logf("wire: read from %s: %v", conn.RemoteAddr(), err)
			}
			break
		}
		size := 0
		if adm != nil {
			if !established {
				// First complete, well-formed frame: the connection is no
				// longer half-open and stops occupying a slow-loris slot.
				established = true
				adm.halfOpen.Add(-1)
			}
			size = len(*payload)
			adm.queued.Add(int64(size))
			cs.qMu.Lock()
			cs.qBytes += int64(size)
			cs.qMu.Unlock()
		}
		reqs <- request{msgType: msgType, payload: payload, size: size}
	}
	close(reqs)
	<-workerDone
}

// readConnFrame reads one frame and, when a FrameTimeout is armed, holds it
// to a progress deadline: waiting for a frame to START is unbounded (an idle
// pod between drains is legal), but once the first header byte arrives the
// rest of the frame must land within the timeout. A peer dribbling a started
// frame — the slow loris — is evicted, freeing its worker and queue slot.
func (s *Server) readConnFrame(cs *connState, conn net.Conn) (MsgType, *[]byte, error) {
	var timeout time.Duration
	if s.adm != nil {
		timeout = s.adm.cfg.FrameTimeout
	}
	if timeout <= 0 {
		return readFramePooled(conn, cs.hdr[:])
	}
	hdr := cs.hdr[:]
	if _, err := io.ReadFull(conn, hdr[:1]); err != nil {
		return 0, nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	defer func() { _ = conn.SetReadDeadline(time.Time{}) }()
	if _, err := io.ReadFull(conn, hdr[1:]); err != nil {
		return 0, nil, s.slowLorisErr(err)
	}
	t, size, err := parseFrameHeader(hdr)
	if err != nil {
		return 0, nil, err
	}
	t, bp, err := readFrameBody(conn, t, size)
	if err != nil {
		return 0, nil, s.slowLorisErr(err)
	}
	return t, bp, nil
}

// slowLorisErr annotates (and counts) a frame-progress deadline hit;
// other read errors pass through untouched.
func (s *Server) slowLorisErr(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.adm.slowEvicted.Add(1)
		return fmt.Errorf("wire: slow-loris eviction: frame stalled past %v: %w", s.adm.cfg.FrameTimeout, err)
	}
	return err
}

// admitBatch charges n traces against the session's (or, for unsessioned
// frames, the connection's) token bucket. Runs on the worker, so a busy
// reply lands in the exact reply slot the frame's ack would have used —
// pipelined clients keep matching acks by order. handled=true means the
// frame was answered (MsgBusy) and the handler must return err without
// touching the backend; otherwise the frame is admitted.
func (s *Server) admitBatch(cs *connState, w io.Writer, session string, n int) (handled bool, err error) {
	a := s.adm
	if a == nil || a.cfg.SessionRate <= 0 {
		return false, nil
	}
	key := session
	if key == "" {
		key = cs.key
	}
	wait, ok := a.debit(key, n, time.Now())
	if ok {
		return false, nil
	}
	a.busyReplies.Add(1)
	return true, cs.replyBusy(w, wait, "session rate limit")
}

// busyFor maps the two backend refusals that mean "not now" to MsgBusy:
// pod.ErrDeferred — the hive's load shedder asking for the batch later —
// and pod.ErrReadOnly — the journal's write breaker after persistent disk
// write failures, which persists until a checkpoint lands. Either way the
// frame stays unacked and the client resubmits it verbatim after the hint.
// The two are counted apart (BusyReplies, ReadOnlyBusy): operators must be
// able to tell "overloaded" from "disk is failing". handled=false means err
// is neither and belongs in an ordinary ack.
func (s *Server) busyFor(cs *connState, w io.Writer, err error) (handled bool, werr error) {
	switch {
	case errors.Is(err, pod.ErrReadOnly):
		s.readOnlyBusy.Add(1)
	case errors.Is(err, pod.ErrDeferred):
		if s.adm != nil {
			s.adm.busyReplies.Add(1)
		}
	default:
		return false, nil
	}
	return true, cs.replyBusy(w, defaultRetryAfter, err.Error())
}

func (s *Server) dispatch(cs *connState, w io.Writer, msgType MsgType, payload []byte) error {
	switch msgType {
	case MsgHello:
		return s.handleHello(cs, w, payload)
	case MsgSubmitBatchColumnar:
		return s.handleSubmitColumnar(cs, w, payload)
	case MsgSubmitBatchCompressed:
		return s.handleSubmitCompressed(cs, w, payload)
	case MsgGetFixes:
		return s.handleGetFixes(cs, w, payload)
	case MsgGetGuidance:
		return s.handleGetGuidance(cs, w, payload)
	}
	return cs.replyError(w, fmt.Sprintf("unknown message type %d", msgType))
}

// handleHello accepts a hello that names this server's protocol version,
// attaching the placement map when the server is a ring member (an unsharded
// hive stays silent and clients route everything to it). Any other version —
// the JSON hello of version 1 and earlier, and one from before versions,
// which names none and reads as 0 — is refused with an error naming both,
// and the connection stays open for a peer that has something else to say.
func (s *Server) handleHello(cs *connState, w io.Writer, payload []byte) error {
	version, err := decodeHello(payload)
	if err != nil {
		return cs.replyError(w, err.Error())
	}
	if version != ProtocolVersion {
		return cs.replyError(w, fmt.Sprintf(
			"hello speaks protocol version %d, this server speaks version %d", version, ProtocolVersion))
	}
	pl, _ := s.placementSnapshot()
	cs.out = appendHelloAck(cs.out[:0], ProtocolVersion, placementPayload(pl))
	return cs.send(w, MsgHelloAck)
}

// maxInnerFrames bounds the inner frames one mega-frame may carry: each
// inner frame produces an inner ack, so the bound keeps a hostile
// mega-frame of millions of tiny requests from amplifying into an
// unbounded reply buffer. Honest clients batch far below it.
const maxInnerFrames = 4096

// ackBuffer accumulates the inner reply frames of one coalesced group in
// memory so they can leave in a single writev.
type ackBuffer struct{ buf []byte }

func (a *ackBuffer) Write(p []byte) (int, error) {
	a.buf = append(a.buf, p...)
	return len(p), nil
}

// handleCoalesced dispatches every inner frame of a mega-frame exactly as
// if it had arrived alone, accumulating the inner replies, and answers
// with one MsgCoalesced written to the connection as a single writev
// (after flushing any buffered replies so request order is preserved). A
// malformed mega-frame gets a whole-frame MsgError instead; per-inner
// failures are ordinary inner acks and do not poison the group.
func (s *Server) handleCoalesced(cs *connState, conn net.Conn, bw *bufio.Writer, payload []byte) error {
	bp := framePool.Get().(*[]byte)
	acks := ackBuffer{buf: (*bp)[:0]}
	inner := 0
	err := forEachInner(payload, func(t MsgType, body []byte) error {
		if t == MsgCoalesced {
			return fmt.Errorf("%w: nested coalesced frame", ErrFrame)
		}
		if inner++; inner > maxInnerFrames {
			return fmt.Errorf("%w: more than %d inner frames", ErrFrame, maxInnerFrames)
		}
		return s.dispatch(cs, &acks, t, body)
	})
	if err != nil {
		*bp = acks.buf
		framePool.Put(bp)
		if errors.Is(err, ErrFrame) {
			return cs.replyError(bw, err.Error())
		}
		return err
	}
	werr := bw.Flush()
	if werr == nil {
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(acks.buf)+1))
		hdr[4] = byte(MsgCoalesced)
		vec := net.Buffers{hdr[:], acks.buf}
		_, werr = vec.WriteTo(conn)
	}
	*bp = acks.buf
	framePool.Put(bp)
	return werr
}

// handleSubmitColumnar ingests a sequenced columnar batch.
func (s *Server) handleSubmitColumnar(cs *connState, w io.Writer, payload []byte) error {
	session, seq, batchBytes, err := decodeSeqPrefix(payload)
	if err != nil {
		return ackBin(w, 0, false, err)
	}
	return s.ingestColumnar(cs, w, session, seq, batchBytes)
}

// handleSubmitCompressed is handleSubmitColumnar for a frame whose batch
// bytes arrive DEFLATE-compressed (trace.CompressSlab). The inflate runs
// before ingest, bounded by MaxFrameSize post-inflate (decompression-bomb
// guard), so the backend — and with it the journal — sees only the
// canonical decompressed columnar payload, byte-identical to an
// uncompressed submission of the same batch.
func (s *Server) handleSubmitCompressed(cs *connState, w io.Writer, payload []byte) error {
	session, seq, compBytes, err := decodeSeqPrefix(payload)
	if err != nil {
		return ackBin(w, 0, false, err)
	}
	raw, err := trace.DecompressSlab(compBytes, MaxFrameSize)
	if err != nil {
		return ackBin(w, 0, false, err)
	}
	defer trace.ReleaseSlab(raw)
	return s.ingestColumnar(cs, w, session, seq, *raw)
}

// ackBin writes one binary acknowledgement.
func ackBin(w io.Writer, accepted int, dup bool, err error) error {
	msg := ""
	if err != nil {
		accepted, dup, msg = 0, false, err.Error()
	}
	return WriteFrame(w, MsgAckBin, encodeAckBin(accepted, dup, msg))
}

// ingestColumnar hands canonical batch bytes to the backend as a zero-copy
// view. The view borrows batchBytes and is released before return; a
// durable backend journals exactly those bytes. On a sharded server a batch
// for a program owned elsewhere never reaches the backend: the client is
// redirected to the owner and resubmits the frame there.
func (s *Server) ingestColumnar(cs *connState, w io.Writer, session string, seq uint64, batchBytes []byte) error {
	view, err := trace.DecodeBatch(batchBytes)
	if err != nil {
		return ackBin(w, 0, false, err)
	}
	defer view.Release()
	if owner, local, pl := s.routeFor(view.ProgramID()); !local {
		return cs.redirect(w, view.ProgramID(), owner, pl)
	}
	if handled, herr := s.admitBatch(cs, w, session, view.Len()); handled {
		return herr
	}
	dup, err := s.sub.SubmitColumnarSession(session, seq, view)
	if err != nil {
		if handled, herr := s.busyFor(cs, w, err); handled {
			return herr
		}
	}
	// A duplicate counts as fully accepted: the batch is already part of the
	// collective state, and the client must not resubmit it.
	return ackBin(w, view.Len(), dup, err)
}

// handleGetFixes answers the fixes of a program past the version the pod
// has, back to back; a backend failure is answered MsgError.
func (s *Server) handleGetFixes(cs *connState, w io.Writer, payload []byte) error {
	programID, version, err := decodeRead(payload, "get fixes")
	if err != nil {
		return cs.replyError(w, err.Error())
	}
	if owner, local, pl := s.routeFor(programID); !local {
		return cs.redirect(w, programID, owner, pl)
	}
	fixes, version, err := s.backend.FixesSince(programID, version)
	if err != nil {
		return cs.replyError(w, err.Error())
	}
	cs.out = appendFixes(cs.out[:0], version, fixes)
	return cs.send(w, MsgFixes)
}

// handleGetGuidance answers up to the asked number of steering cases, back
// to back; a backend failure is answered MsgError.
func (s *Server) handleGetGuidance(cs *connState, w io.Writer, payload []byte) error {
	programID, max, err := decodeRead(payload, "get guidance")
	if err != nil {
		return cs.replyError(w, err.Error())
	}
	if owner, local, pl := s.routeFor(programID); !local {
		return cs.redirect(w, programID, owner, pl)
	}
	cases, err := s.backend.Guidance(programID, max)
	if err != nil {
		return cs.replyError(w, err.Error())
	}
	cs.out = appendGuidance(cs.out[:0], cases)
	return cs.send(w, MsgGuidance)
}
