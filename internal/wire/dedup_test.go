package wire

import (
	"bytes"
	"errors"

	"io"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hive"
	"repro/internal/leaktest"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ackProxy sits between a wire client and server and kills the first
// connection after forwarding a fixed number of acknowledgements (dropping
// the next one) — the deterministic reproduction of "the link died after
// the server ingested a frame but before its ack reached the client".
// Later connections pipe transparently, unless the link is down.
type ackProxy struct {
	t           *testing.T
	ln          net.Listener
	backendAddr string
	// forwardAcks is how many acks a flaky connection relays before the
	// next ack is dropped and both sides are closed.
	forwardAcks int
	// flakyConns is how many leading connections misbehave that way; later
	// connections pipe transparently. Two flaky connections defeat both the
	// original attempt and the transparent retry — the cross-drain failure
	// mode.
	flakyConns int
	// down closes every later connection at once while it is set: the link
	// stays dead for a whole drain, however often the client redials.
	down atomic.Bool
	// replies counts the frames relayed from the server to the client.
	replies atomic.Int64

	mu    sync.Mutex
	conns int
	wg    sync.WaitGroup
}

func newAckProxy(t *testing.T, backendAddr string, forwardAcks int) *ackProxy {
	return newFlakyProxy(t, backendAddr, forwardAcks, 1)
}

func newFlakyProxy(t *testing.T, backendAddr string, forwardAcks, flakyConns int) *ackProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &ackProxy{t: t, ln: ln, backendAddr: backendAddr, forwardAcks: forwardAcks, flakyConns: flakyConns}
	go p.serve()
	t.Cleanup(func() {
		_ = ln.Close()
		p.wg.Wait()
	})
	return p
}

func (p *ackProxy) addr() string { return p.ln.Addr().String() }

func (p *ackProxy) serve() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		idx := p.conns
		p.conns++
		p.mu.Unlock()
		p.wg.Add(1)
		go p.pipe(conn, idx)
	}
}

func (p *ackProxy) pipe(client net.Conn, idx int) {
	defer p.wg.Done()
	if idx >= p.flakyConns && p.down.Load() {
		_ = client.Close()
		return
	}
	server, err := net.Dial("tcp", p.backendAddr)
	if err != nil {
		_ = client.Close()
		return
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // client -> server: transparent
		defer wg.Done()
		_, _ = io.Copy(server, client)
		if tc, ok := server.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}()
	go func() { // server -> client: frame-aware, flaky on the first conn
		defer wg.Done()
		forwarded := 0
		for {
			msgType, payload, err := ReadFrame(server)
			if err != nil {
				return
			}
			if idx < p.flakyConns && forwarded == p.forwardAcks {
				// Drop this ack and kill the link: the server applied the
				// frame, the client never hears about it.
				_ = client.Close()
				_ = server.Close()
				return
			}
			if err := WriteFrame(client, msgType, payload); err != nil {
				return
			}
			p.replies.Add(1)
			forwarded++
		}
	}()
	wg.Wait()
	_ = client.Close()
	_ = server.Close()
}

// dedupFixture serves a real hive over TCP behind an ackProxy.
func dedupFixture(t *testing.T, forwardAcks int) (*hive.Hive, *prog.Program, *Client) {
	t.Helper()
	p, _, err := proggen.Generate(proggen.Spec{Seed: 7001, Depth: 4, NumInputs: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := hive.New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	proxy := newAckProxy(t, addr, forwardAcks)
	client := Dial(proxy.addr())
	t.Cleanup(func() { _ = client.Close() })
	return h, p, client
}

// cloneSealed copies frames, payloads included: the frames a lost ack
// leaves the caller holding. SubmitSealed consumes the frames it
// acknowledges, so a test that resubmits an acknowledged frame clones it
// before the first submit and resubmits the clone.
func cloneSealed(sealed []pod.SealedBatch) []pod.SealedBatch {
	out := make([]pod.SealedBatch, len(sealed))
	for i, sb := range sealed {
		sb.Payload = bytes.Clone(sb.Payload)
		out[i] = sb
	}
	return out
}

func makeBatches(t *testing.T, p *prog.Program, batches, perBatch int) [][]*trace.Trace {
	t.Helper()
	rng := stats.NewRNG(5)
	out := make([][]*trace.Trace, batches)
	seq := uint64(0)
	for i := range out {
		for j := 0; j < perBatch; j++ {
			input := []int64{rng.Int63n(256)}
			col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
			m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
			if err != nil {
				t.Fatal(err)
			}
			res := m.Run()
			seq++
			out[i] = append(out[i], col.Finish("dedup-pod", seq, res, input, trace.PrivacyHashed, "fleet"))
		}
	}
	return out
}

// TestStreamResubmitExactlyOnce kills the connection mid-stream after the
// server ingested frames whose acks never arrived; the client's transparent
// retry resends them with their original sequence numbers and the hive
// ingests every batch exactly once.
func TestStreamResubmitExactlyOnce(t *testing.T) {
	const (
		batches  = 10
		perBatch = 4
		acksSeen = 4 // client learns of 4 frames; the rest are in limbo
	)
	h, p, client := dedupFixture(t, acksSeen)
	all := makeBatches(t, p, batches, perBatch)

	accepted, err := submitBatches(client, p.ID, all)
	if err != nil {
		t.Fatalf("SubmitSealed: %v", err)
	}
	for i, ok := range accepted {
		if !ok {
			t.Fatalf("batch %d not accepted", i)
		}
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(batches * perBatch); st.Ingested != want {
		t.Fatalf("hive ingested %d traces, want exactly %d", st.Ingested, want)
	}
}

// TestSubmitForLostAckExactlyOnce loses the single ack of a loose
// SubmitTraces batch after the server applied it: the frame was sealed with
// its (session, seq) tag before the first attempt, so the transparent retry
// is answered as a duplicate and nothing is ingested twice.
func TestSubmitForLostAckExactlyOnce(t *testing.T) {
	// One ack gets through — the hello's — and the next is dropped.
	h, p, client := dedupFixture(t, 1)
	if err := client.Handshake(); err != nil {
		t.Fatal(err)
	}
	batch := makeBatches(t, p, 1, 6)[0]
	if err := client.SubmitTraces(batch); err != nil {
		t.Fatalf("SubmitTraces: %v", err)
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(batch)); st.Ingested != want {
		t.Fatalf("hive ingested %d traces, want exactly %d", st.Ingested, want)
	}
}

// TestClientSurfacesUnderlyingError asserts the retry-exhausted error wraps
// the real transport failure instead of a generic unreachability string.
func TestClientSurfacesUnderlyingError(t *testing.T) {
	// A listener that accepts and instantly closes: the write may succeed and
	// the response read hit EOF or a reset, or the write itself may find the
	// pipe already broken — twice.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_ = conn.Close()
		}
	}()
	client := Dial(ln.Addr().String())
	defer client.Close()
	_, gerr := client.Guidance("nope", 1)
	if gerr == nil {
		t.Fatal("expected an error from a dead server")
	}
	if !errors.Is(gerr, io.EOF) && !strings.Contains(gerr.Error(), "connection reset") &&
		!strings.Contains(gerr.Error(), "broken pipe") {
		t.Fatalf("error does not surface the underlying transport failure: %v", gerr)
	}
	if !strings.Contains(gerr.Error(), "unreachable after retry") {
		t.Fatalf("error lost the retry context: %v", gerr)
	}

	batch := [][]*trace.Trace{{{ProgramID: "x"}}}
	_, serr := submitBatches(client, "x", batch)
	if serr == nil {
		t.Fatal("expected an error from a dead server")
	}
	if !errors.Is(serr, io.EOF) && !strings.Contains(serr.Error(), "connection reset") &&
		!strings.Contains(serr.Error(), "broken pipe") {
		t.Fatalf("stream error does not surface the underlying transport failure: %v", serr)
	}
}

// TestCrossDrainResubmitExactlyOnce defeats a drain's transparent retry
// too: the proxy kills the first two connections after one ack each, so
// the buffered client's first Drain fails outright with frames delivered
// but unacknowledged. Those frames stay sealed with their original
// (session, seq) tags; the next Drain re-submits them verbatim over a
// healthy link, and the hive — which already ingested them — acknowledges
// without re-applying: exactly-once across drains, not just within one.
func TestCrossDrainResubmitExactlyOnce(t *testing.T) {
	p, _, err := proggen.Generate(proggen.Spec{Seed: 7002, Depth: 4, NumInputs: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := hive.New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	proxy := newFlakyProxy(t, addr, 1, 2) // both attempts die after 1 ack
	proxy.down.Store(true)                // and the client's re-polls find no link
	client := Dial(proxy.addr())
	t.Cleanup(func() { _ = client.Close() })

	buf := pod.NewBufferedFor(client, p.ID)
	// One stream chunk more than a mega-frame carries (256 traces a chunk),
	// so the drain is two groups and the proxy's per-ack kill schedule means
	// "the hello, then nothing" on the first connection and "the first group
	// acked, the last chunk in limbo" on the retry.
	chunk := makeBatches(t, p, 1, 256)[0]
	total := 0
	for i := 0; i <= coalesceDepth; i++ {
		if err := buf.SubmitTraces(chunk); err != nil {
			t.Fatal(err)
		}
		total += len(chunk)
	}

	if err := buf.Drain(); err == nil {
		t.Fatal("first drain succeeded; proxy should have killed both attempts")
	}
	if pend := buf.Pending(); pend == 0 || pend%256 != 0 {
		t.Fatalf("pending after failed drain = %d, want a whole number of sealed frames", pend)
	}
	// The link heals.
	proxy.down.Store(false)
	if err := buf.Drain(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if pend := buf.Pending(); pend != 0 {
		t.Fatalf("pending after healed drain = %d", pend)
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != int64(total) {
		t.Fatalf("hive ingested %d traces, want exactly %d (cross-drain duplicate?)", st.Ingested, total)
	}
}

// TestSealedResubmissionUnderShedding puts the load shedder inside the
// resubmission loop and proves the two mechanisms compose: session dedup
// answers replayed sealed frames before the shedder can see them, shed
// batches are acked without being applied or session-marked, and once
// pressure clears the identical sealed frames land — exactly-once for
// everything admitted, at-least-once for everything shed.
func TestSealedResubmissionUnderShedding(t *testing.T) {
	leaktest.Check(t)
	p, _, err := proggen.Generate(proggen.Spec{Seed: 7001, Depth: 4, NumInputs: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := hive.New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	var pressure atomic.Uint64 // math.Float64bits, settable mid-test
	h.SetShedPolicy(&hive.ShedPolicy{Watermark: 0.5})
	h.SetPressureSource(func() float64 { return math.Float64frombits(pressure.Load()) })
	srv := NewServer(h)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	proxy := newAckProxy(t, addr, 4) // first conn dies with frames in limbo
	client := Dial(proxy.addr())
	t.Cleanup(func() { _ = client.Close() })

	// Drain 1, pressure zero: the flaky link forces a transparent retry of
	// the limbo frames; dedup keeps ingestion exact.
	const batches, perBatch = 10, 4
	sealed := client.SealTraceBatches(p.ID, makeBatches(t, p, batches, perBatch))
	replay := cloneSealed(sealed)
	accepted, err := client.SubmitSealed(sealed)
	if err != nil {
		t.Fatalf("drain 1: %v", err)
	}
	for i, ok := range accepted {
		if !ok {
			t.Fatalf("drain 1: batch %d unacked", i)
		}
	}
	ingestedNow := func() int64 {
		st, err := h.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		return st.Ingested
	}
	if got := ingestedNow(); got != batches*perBatch {
		t.Fatalf("drain 1 ingested %d, want %d", got, batches*perBatch)
	}

	// Paranoid replay of the SAME sealed frames at high pressure: every
	// frame is a session duplicate and must be dup-acked by the dedup
	// window before the shedder prices it.
	pressure.Store(math.Float64bits(0.9))
	accepted, err = client.SubmitSealed(replay)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	for i, ok := range accepted {
		if !ok {
			t.Fatalf("replay: batch %d unacked", i)
		}
	}
	if got := ingestedNow(); got != batches*perBatch {
		t.Fatalf("replay re-ingested: %d traces", got)
	}
	if ss := h.ShedStats(); ss.ShedDuplicate != 0 || ss.ShedCovered != 0 {
		t.Fatalf("session-dup frames reached the shedder: %+v", ss)
	}

	// Fresh frames carrying already-covered work at high pressure: acked
	// but shed, and — critically — never session-marked.
	shedSealed := client.SealTraceBatches(p.ID, makeBatches(t, p, 5, perBatch))
	shedReplay := cloneSealed(shedSealed)
	accepted, err = client.SubmitSealed(shedSealed)
	if err != nil {
		t.Fatalf("shed drain: %v", err)
	}
	for i, ok := range accepted {
		if !ok {
			t.Fatalf("shed drain: batch %d unacked", i)
		}
	}
	if got := ingestedNow(); got != batches*perBatch {
		t.Fatalf("shed drain ingested %d, want unchanged %d", got, batches*perBatch)
	}
	if ss := h.ShedStats(); ss.ShedDuplicate+ss.ShedCovered != 5 {
		t.Fatalf("want all 5 covered batches shed, got %+v", ss)
	}

	// Pressure clears; the identical sealed frames now land: the shed path
	// left no session mark behind to swallow them.
	pressure.Store(0)
	accepted, err = client.SubmitSealed(shedReplay)
	if err != nil {
		t.Fatalf("post-shed drain: %v", err)
	}
	for i, ok := range accepted {
		if !ok {
			t.Fatalf("post-shed drain: batch %d unacked", i)
		}
	}
	if got, want := ingestedNow(), int64((batches+5)*perBatch); got != want {
		t.Fatalf("post-shed drain ingested %d, want %d", got, want)
	}
}
