package chaos

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// HostileFrames is a deterministic corpus of malformed or adversarial
// wire byte streams, one entry per attack shape. The garbage-client
// scenarios replay it against live servers and FuzzHostileFrame seeds
// its corpus from it, so every shape that has ever taken a server down
// is pinned in both harnesses.
func HostileFrames(seed uint64) [][]byte {
	rng := stats.NewRNG(seed)
	framed := func(mt wire.MsgType, body string) []byte {
		f := make([]byte, 5, 5+len(body))
		binary.BigEndian.PutUint32(f, uint32(1+len(body)))
		f[4] = byte(mt)
		return append(f, body...)
	}
	frames := [][]byte{
		{},                       // connect, say nothing, hang up
		{0x00},                   // truncated length header
		{0x00, 0x00, 0x00},       // still truncated
		{0x00, 0x00, 0x00, 0x00}, // zero-size frame (size must include the type byte)
		{0xff, 0xff, 0xff, 0xff}, // maximal size claim, no body
	}
	// Size claim just past the frame limit: must be rejected before any
	// allocation of that magnitude.
	over := make([]byte, 5)
	binary.BigEndian.PutUint32(over, uint32(wire.MaxFrameSize+1))
	over[4] = byte(wire.MsgSubmitBatchColumnar)
	frames = append(frames, over)
	// The same claim behind a well-formed hello: no hello raises the limit.
	hello := framed(wire.MsgHello, string(wire.AppendHello(nil)))
	frames = append(frames, append(hello, over...))
	// A hello from before protocol versions — feature strings and a
	// frame-size ask — and the JSON hello of version 1, and one claiming
	// this version in JSON: refused, and nothing they ask for granted.
	frames = append(frames, framed(wire.MsgHello,
		`{"features":["columnar-batch","coalesced-frames","slab-flate","busy-retry","ring-routing"],"maxFrame":67108864}`))
	frames = append(frames, framed(wire.MsgHello, `{"version":1}`))
	frames = append(frames, framed(wire.MsgHello, fmt.Sprintf(`{"version":%d}`, wire.ProtocolVersion)))
	// Reads after a well-formed hello whose program ID length, version or
	// case count is hostile: none is sized past its frame, and the
	// connection is answered, not dropped.
	for _, v := range []uint64{0, 1, math.MaxUint64, 1 << 60, 1<<63 - 1, 1<<64 - 4} {
		long := binary.AppendUvarint(nil, v) // a program ID length
		frames = append(frames, append(append([]byte(nil), hello...),
			framed(wire.MsgGetFixes, string(append(long, 'p')))...))
		count := binary.AppendUvarint([]byte{1, 'p'}, v) // a version or a case count
		frames = append(frames, append(append([]byte(nil), hello...),
			framed(wire.MsgGetGuidance, string(count))...))
		frames = append(frames, append(append([]byte(nil), hello...),
			framed(wire.MsgGetFixes, string(append(count, 0x80)))...))
	}
	// Unknown message type carrying a large-but-legal claim and no body:
	// the reader must not wait forever for bytes that never come, and the
	// worker must answer an error, not crash.
	unknown := make([]byte, 5)
	binary.BigEndian.PutUint32(unknown, 1<<20)
	unknown[4] = 0xee
	frames = append(frames, unknown)
	// Well-formed header, garbage payloads: the control decoders and the
	// columnar codec see attacker-controlled bytes, and type 1 — retired
	// with the per-trace submission frames — must stay an unknown type.
	for _, mt := range []wire.MsgType{wire.MsgHello, 1, wire.MsgSubmitBatchColumnar, wire.MsgCoalesced} {
		frames = append(frames, framed(mt, `{"truncated":`))
	}
	// A coalesced frame whose inner frame lies about its own length.
	inner := make([]byte, 5)
	binary.BigEndian.PutUint32(inner, 1<<30)
	inner[4] = byte(wire.MsgSubmitBatchColumnar)
	co := make([]byte, 5, 5+len(inner))
	binary.BigEndian.PutUint32(co, uint32(1+len(inner)))
	co[4] = byte(wire.MsgCoalesced)
	frames = append(frames, append(co, inner...))
	// Random byte soup of assorted lengths, deterministically seeded.
	for i := 0; i < 8; i++ {
		n := 1 + rng.Intn(512)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(rng.Uint64())
		}
		frames = append(frames, b)
	}
	return frames
}

// SlowLoris holds one connection hostage: it starts a plausible frame
// (legal header claiming a 4 KiB submission) and then dribbles one byte
// per interval, never finishing. Against an unprotected server this
// parks a worker forever; with Admission.FrameTimeout set the server
// must evict it. Returns when stop closes or the server hangs up —
// eviction surfaces as a (desired) write/read error, reported as nil.
func SlowLoris(addr string, interval time.Duration, stop <-chan struct{}) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("chaos: slow-loris dial %s: %w", addr, err)
	}
	defer conn.Close()
	payload := make([]byte, 5, 5+4096)
	binary.BigEndian.PutUint32(payload, 4097)
	payload[4] = byte(wire.MsgSubmitBatchColumnar)
	payload = append(payload, make([]byte, 4096)...)
	for i := range payload {
		if _, err := conn.Write(payload[i : i+1]); err != nil {
			return nil // evicted: the attack was absorbed
		}
		select {
		case <-stop:
			return nil
		case <-time.After(interval):
		}
	}
	// Frame completed (interval too generous for the configured timeout);
	// hold the connection half-open until told to stop.
	<-stop
	return nil
}

// Garbage hammers addr with the hostile corpus: dial, replay malformed
// streams until the server hangs up, redial, repeat. Deterministic per
// seed. Runs until stop closes; persistent dial failure is returned so
// a scenario can tell "server defended itself" from "server died".
func Garbage(addr string, seed uint64, stop <-chan struct{}) error {
	rng := stats.NewRNG(seed)
	corpus := HostileFrames(seed)
	dialFails := 0
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			if dialFails++; dialFails > 50 {
				return fmt.Errorf("chaos: garbage client cannot reach %s: %w", addr, err)
			}
			select {
			case <-stop:
				return nil
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		dialFails = 0
		for {
			if _, err := conn.Write(corpus[rng.Intn(len(corpus))]); err != nil {
				break
			}
			select {
			case <-stop:
				_ = conn.Close()
				return nil
			case <-time.After(time.Millisecond):
			}
		}
		_ = conn.Close()
	}
}
