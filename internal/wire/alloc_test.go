package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"runtime"
	"testing"

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
	hello, err := json.Marshal(HelloAckPayload{Version: ProtocolVersion})
	if err != nil {
		t.Fatal(err)
	}
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
// frame's trace count. The free list never holds more than its bound.
func TestAllocsSealSubmit(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	// One P: trace.AppendBatch's encoder comes from a sync.Pool, whose
	// per-P cache misses, and regrows an encoder, whenever the goroutine
	// changes P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perFrame := func(n int) float64 {
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
		return float64(after.TotalAlloc-before.TotalAlloc) / frames
	}
	small, large := perFrame(16), perFrame(256)
	// A client that allocates every payload pays ~70 B for each of the 240
	// more traces, ~17 KiB a frame; a recycling one pays the same bytes for
	// both frames.
	if grow := large - small; grow > 64 {
		t.Fatalf("a 256-trace frame costs %.0f B, a 16-trace one %.0f B: +%.0f B grows with the trace count", large, small, grow)
	}

	// A drain twice the bound: every frame acknowledged, the list full.
	c := Dial(ackServer(t, 1))
	defer c.Close()
	batches := make([][]*trace.Trace, 2*maxInflightFrames)
	for i := range batches {
		batches[i] = sealTraces("alloc", 1)
	}
	if _, err := c.SubmitSealed(c.SealTraceBatches("alloc", batches)); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.free) != maxInflightFrames {
		t.Fatalf("free list holds %d buffers after a %d-frame drain; want its bound, %d", len(c.free), len(batches), maxInflightFrames)
	}
	// Nor does it keep a buffer larger than a mega-frame's byte budget, or
	// one buffer twice (one frame passed twice to a submit).
	c.free = c.free[:0]
	c.recycleLocked(make([]byte, coalesceByteBudget+1))
	if len(c.free) != 0 {
		t.Fatalf("free list kept a %d-byte buffer; the bound is %d", coalesceByteBudget+1, coalesceByteBudget)
	}
	twice := make([]byte, 64)
	c.recycleLocked(twice)
	c.recycleLocked(twice)
	if len(c.free) != 1 {
		t.Fatalf("free list holds %d entries for one buffer recycled twice; want 1", len(c.free))
	}
}
