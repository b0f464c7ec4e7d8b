package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/fix"
	"repro/internal/prog"
	"repro/internal/race"
	"repro/internal/trace"
)

// TestAllocsForEachInner pins the zero-copy contract of the mega-frame
// splitter: walking a 16-frame coalesced payload allocates nothing — inner
// payloads are sub-slices of the buffer the outer frame was read into.
func TestAllocsForEachInner(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	frames := make([][]byte, 16)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte(i)}, 512+i)
	}
	payload := buildCoalesced(frames...)
	sink := 0
	avg := testing.AllocsPerRun(1000, func() {
		if err := forEachInner(payload, func(_ MsgType, inner []byte) error {
			sink += len(inner)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("splitting a 16-frame mega-frame costs %.1f allocs; want 0", avg)
	}
	_ = sink
}

// ackServer answers one client's hello and then acknowledges every inner
// frame of every mega-frame as count traces accepted. After its first
// frames it allocates nothing, so what a process-wide allocation count adds
// up is what the client allocates.
func ackServer(t *testing.T, count int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
	})
	hello := appendHelloAck(nil, ProtocolVersion, nil)
	ack := encodeAckBin(count, false, "")
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hdr := make([]byte, 5)
		var body, out []byte
		for {
			if _, err := io.ReadFull(conn, hdr); err != nil {
				return
			}
			typ, size, err := parseFrameHeader(hdr)
			if err != nil {
				return
			}
			if cap(body) < size {
				// Room to spare: a frame grows by a byte when its seq
				// needs another varint byte.
				body = make([]byte, 2*size)
			}
			body = body[:size]
			if _, err := io.ReadFull(conn, body); err != nil {
				return
			}
			out = out[:0]
			switch typ {
			case MsgHello:
				out = appendInnerHeader(out, MsgHelloAck, len(hello))
				out = append(out, hello...)
			case MsgCoalesced:
				out = append(out, 0, 0, 0, 0, byte(MsgCoalesced))
				_ = forEachInner(body, func(MsgType, []byte) error {
					out = appendInnerHeader(out, MsgAckBin, len(ack))
					out = append(out, ack...)
					return nil
				})
				binary.BigEndian.PutUint32(out, uint32(len(out)-4))
			default:
				return
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestAllocsSealSubmit pins what a client allocates to ship a frame once the
// frames before it were acknowledged: the payload is sealed into a recycled
// buffer, so the bytes of one seal → submit → ack do not grow with the
// frame's trace count, and a 16-trace frame to one unsharded hive costs at
// most 144 B in 8 allocations — the owner lookup and the per-owner grouping
// included. The free list never holds more than its bound.
func TestAllocsSealSubmit(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	// One P: trace.AppendBatch's encoder comes from a sync.Pool, whose
	// per-P cache misses, and regrows an encoder, whenever the goroutine
	// changes P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perFrame := func(n int) (bytes, allocs float64) {
		c := Dial(ackServer(t, n))
		defer c.Close()
		batch := [][]*trace.Trace{sealTraces("alloc", n)}
		ship := func() {
			accepted, err := c.SubmitSealed(c.SealTraceBatches("alloc", batch))
			if err != nil || !accepted[0] {
				t.Fatalf("%d traces: accepted=%v err=%v", n, accepted, err)
			}
		}
		// A clean heap first, so no collection, which would empty the
		// encoder's pool, falls inside the count; then warm up: the hello,
		// the scratch buffers, the first payload.
		runtime.GC()
		for i := 0; i < 10; i++ {
			ship()
		}
		const frames = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < frames; i++ {
			ship()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / frames, float64(after.Mallocs-before.Mallocs) / frames
	}
	small, smallAllocs := perFrame(16)
	if small > 144 || smallAllocs > 8 {
		t.Fatalf("a 16-trace frame costs %.0f B in %.1f allocations; want at most 144 B in 8", small, smallAllocs)
	}
	large, _ := perFrame(256)
	// A client that allocates every payload pays ~70 B for each of the 240
	// more traces, ~17 KiB a frame; a recycling one pays the same bytes for
	// both frames.
	if grow := large - small; grow > 64 {
		t.Fatalf("a 256-trace frame costs %.0f B, a 16-trace one %.0f B: +%.0f B grows with the trace count", large, small, grow)
	}

	// A drain twice the bound: every frame acknowledged, the list full.
	addr := ackServer(t, 1)
	c := Dial(addr)
	defer c.Close()
	batches := make([][]*trace.Trace, 2*maxInflightFrames)
	for i := range batches {
		batches[i] = sealTraces("alloc", 1)
	}
	if _, err := c.SubmitSealed(c.SealTraceBatches("alloc", batches)); err != nil {
		t.Fatal(err)
	}
	hc := c.connTo(addr)
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if len(hc.free) != maxInflightFrames {
		t.Fatalf("free list holds %d buffers after a %d-frame drain; want its bound, %d", len(hc.free), len(batches), maxInflightFrames)
	}
	// Nor does it keep a buffer larger than a mega-frame's byte budget, or
	// one buffer twice (one frame passed twice to a submit).
	hc.free = hc.free[:0]
	hc.recycleLocked(make([]byte, coalesceByteBudget+1))
	if len(hc.free) != 0 {
		t.Fatalf("free list kept a %d-byte buffer; the bound is %d", coalesceByteBudget+1, coalesceByteBudget)
	}
	twice := make([]byte, 64)
	hc.recycleLocked(twice)
	hc.recycleLocked(twice)
	if len(hc.free) != 1 {
		t.Fatalf("free list holds %d entries for one buffer recycled twice; want 1", len(hc.free))
	}
}

// syncedClient returns a client of a hive that has minted a fix for p, and
// the fix version the client is then at: it has synced once, and said hello.
func syncedClient(t *testing.T, p *prog.Program, addr string) (*Client, int) {
	t.Helper()
	c := Dial(addr)
	t.Cleanup(func() { _ = c.Close() })
	if _, err := submitBatches(c, p.ID, [][]*trace.Trace{makeTraces(t, p, 16)}); err != nil {
		t.Fatal(err)
	}
	fixes, version, err := c.FixesSince(p.ID, 0)
	if err != nil || len(fixes) == 0 {
		t.Fatalf("first sync: %d fixes, err %v; want the crash's guard", len(fixes), err)
	}
	return c, version
}

// TestAllocsFixesSince pins what a warm sync that finds no new fix costs the
// client and the server together: the request and the reply go through
// buffers each side keeps, frame headers are read and written in place, and
// an empty reply decodes to nothing. What is left is the program ID the
// server reads out of the request.
func TestAllocsFixesSince(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	p := buildCrashy(t)
	_, _, addr := coalesceFixture(t, p)
	c, version := syncedClient(t, p, addr)
	sync := func() {
		fixes, v, err := c.FixesSince(p.ID, version)
		if err != nil || len(fixes) != 0 || v != version {
			t.Fatalf("warm sync: %d fixes at version %d, err %v; want none at %d", len(fixes), v, err, version)
		}
	}
	for i := 0; i < 10; i++ {
		sync()
	}
	const budget = 1
	if avg := testing.AllocsPerRun(500, sync); avg > budget {
		t.Fatalf("a warm sync that finds no new fix allocates %.1f times, client and server together; want at most %d", avg, budget)
	}
}

// TestAllocsRedialReusesServerWriter: a connection's reply writer goes back to the
// server when the connection closes, and the next connection takes it, so a
// client that redials N times costs the server one 32 KiB writer, not N.
//
// In the overlap variant each new connection is dialled and served before the
// old one is closed, as a redialling pod's is: the server has not read the
// old connection's EOF yet, but the old connection's worker handed its
// writer back when its reply was flushed, so the new one takes it.
func TestAllocsRedialReusesServerWriter(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	for _, overlap := range []bool{false, true} {
		t.Run(fmt.Sprintf("overlap=%v", overlap), func(t *testing.T) {
			p := buildCrashy(t)
			_, srv, addr := coalesceFixture(t, p)
			// waitConns waits for the server to let go of all but want
			// connections.
			waitConns := func(want int) {
				for deadline := time.Now().Add(5 * time.Second); ; {
					srv.mu.Lock()
					live := len(srv.conns)
					srv.mu.Unlock()
					if live <= want {
						return
					}
					if time.Now().After(deadline) {
						t.Fatal("the server still holds a closed connection")
					}
					time.Sleep(time.Millisecond)
				}
			}
			var old *Client
			redial := func() {
				c := Dial(addr)
				if _, _, err := c.FixesSince(p.ID, 0); err != nil {
					t.Fatal(err)
				}
				if overlap {
					if old != nil {
						_ = old.Close()
					}
					old = c
					waitConns(1)
					return
				}
				_ = c.Close()
				waitConns(0)
			}
			redial()
			const n = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				redial()
			}
			runtime.ReadMemStats(&after)
			if old != nil {
				_ = old.Close()
				waitConns(0)
			}
			srv.mu.Lock()
			idle := len(srv.writers)
			srv.mu.Unlock()
			if idle != 1 {
				t.Fatalf("after %d redials the server keeps %d idle reply writers; want the first connection's one", n+1, idle)
			}
			// A fresh writer alone is 32 KiB; what a redial still allocates,
			// on both sides, is its connection and goroutine state.
			if per := (after.TotalAlloc - before.TotalAlloc) / n; per > replyWriterSize/2 {
				t.Fatalf("a redial allocates %d B, client and server together; want under %d", per, replyWriterSize/2)
			}
		})
	}
}

// historyBackend serves its whole fix history to a sync from version 0 and
// nothing new to a later one.
type historyBackend struct {
	plainBackend
	fixes []fix.Fix
}

func (b historyBackend) FixesSince(_ string, version int) ([]fix.Fix, int, error) {
	if version == 0 {
		return b.fixes, len(b.fixes), nil
	}
	return nil, version, nil
}

// TestAllocsServerDropsLargeReply: a connection that built one fixes reply
// past maxKeptReply — a redialled pod's sync from version 0 — lets that
// buffer go once the reply is sent, and the small replies after it go
// through a buffer it keeps.
func TestAllocsServerDropsLargeReply(t *testing.T) {
	fixes := make([]fix.Fix, 4000)
	for i := range fixes {
		fixes[i] = fix.Fix{
			ID: i + 1, ProgramID: "prog", Kind: fix.KindInputGuard, TargetSignature: "crash@3#-1",
			Guard: &fix.InputGuard{
				Danger:    []fix.GuardTerm{{Coeffs: []fix.Coeff{{Var: 0, K: 1}}, Const: -100, Cmp: 5}},
				SafeInput: []int64{int64(i % 100)},
			},
		}
	}
	srv := NewServer(historyBackend{fixes: fixes})
	cs := &connState{}
	var out bytes.Buffer
	if err := srv.handleGetFixes(cs, &out, appendRead(nil, "prog", 0)); err != nil {
		t.Fatal(err)
	}
	respType, resp, err := ReadFrame(&out)
	if err != nil || respType != MsgFixes {
		t.Fatalf("full sync answered with type %d, err %v", respType, err)
	}
	if len(resp) <= maxKeptReply {
		t.Fatalf("the full sync's reply is %d B; the test needs one past %d", len(resp), maxKeptReply)
	}
	if got, version, err := decodeFixes(resp); err != nil || len(got) != len(fixes) || version != len(fixes) {
		t.Fatalf("full sync decoded %d fixes at version %d, err %v; want %d", len(got), version, err, len(fixes))
	}
	if c := cap(cs.out); c > maxKeptReply {
		t.Fatalf("the connection keeps a %d B reply buffer after the full sync; want at most %d", c, maxKeptReply)
	}

	// Replies go through a reply writer, as on a connection.
	warm, bw := appendRead(nil, "prog", len(fixes)), bufio.NewWriterSize(io.Discard, replyWriterSize)
	sync := func() {
		if err := srv.handleGetFixes(cs, bw, warm); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	sync()
	if c := cap(cs.out); c == 0 || c > maxKeptReply {
		t.Fatalf("the connection's reply buffer holds %d B after a warm sync; want one kept, at most %d", c, maxKeptReply)
	}
	if race.Enabled {
		return
	}
	// The one allocation is the program ID read out of the request.
	if avg := testing.AllocsPerRun(100, sync); avg > 1 {
		t.Fatalf("a warm sync after the full one allocates %.1f times on the server; want at most 1", avg)
	}
}
