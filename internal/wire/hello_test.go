package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/pod"
	"repro/internal/trace"
)

// overLimitHeader is a frame header claiming one byte more than MaxFrameSize.
func overLimitHeader() []byte {
	hdr := make([]byte, 5)
	binary.BigEndian.PutUint32(hdr, MaxFrameSize+1)
	hdr[4] = byte(MsgSubmitBatchColumnar)
	return hdr
}

// expectHangUp asserts the server closes conn without sending anything more:
// a header it refuses ends the connection before a byte of body is read.
func expectHangUp(t *testing.T, conn net.Conn, when string) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	n, err := conn.Read(one[:])
	var ne net.Error
	switch {
	case n != 0 || err == nil:
		t.Fatalf("%s: server answered an over-limit header with a byte", when)
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatalf("%s: server is still waiting for the body of an over-limit frame", when)
	}
}

// TestFrameLimitIsNotNegotiable: MaxFrameSize is the one frame-size limit. A
// header one byte over it ends the connection whether or not a hello came
// first, and a hello from before protocol versions — feature strings and a
// frame-size ask — is refused with an error naming both versions, granting
// nothing.
func TestFrameLimitIsNotNegotiable(t *testing.T) {
	_, addr, stop := startServer(t)
	defer stop()
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		return conn
	}

	cold := dial()
	if _, err := cold.Write(overLimitHeader()); err != nil {
		t.Fatal(err)
	}
	expectHangUp(t, cold, "before any hello")

	greeted := dial()
	if err := WriteFrame(greeted, MsgHello, AppendHello(nil)); err != nil {
		t.Fatal(err)
	}
	if respType, _, err := ReadFrame(greeted); err != nil || respType != MsgHelloAck {
		t.Fatalf("hello answered with type %d, err %v", respType, err)
	}
	if _, err := greeted.Write(overLimitHeader()); err != nil {
		t.Fatal(err)
	}
	expectHangUp(t, greeted, "after the hello")

	old := dial()
	const oldHello = `{"features":["columnar-batch","coalesced-frames","slab-flate","busy-retry","ring-routing"],"maxFrame":67108864}`
	if err := WriteFrame(old, MsgHello, []byte(oldHello)); err != nil {
		t.Fatal(err)
	}
	respType, resp, err := ReadFrame(old)
	if err != nil || respType != MsgError {
		t.Fatalf("feature-string hello answered with type %d, err %v; want MsgError", respType, err)
	}
	for _, want := range []string{"version 0", fmt.Sprintf("version %d", ProtocolVersion)} {
		if !strings.Contains(string(resp), want) {
			t.Fatalf("refusal %s does not name %q", resp, want)
		}
	}
	if _, err := old.Write(overLimitHeader()); err != nil {
		t.Fatal(err)
	}
	expectHangUp(t, old, "after a refused hello that asked for 64 MiB frames")
}

// TestSealedPayloadLimit: a sealed payload must fit a mega-frame of one. The
// largest that does is ingested like any other; one byte more fails with
// ErrFrame before the client dials, because no connection could carry it.
func TestSealedPayloadLimit(t *testing.T) {
	p := buildCrashy(t)
	h, _, addr := coalesceFixture(t, p)

	// One real trace whose pod ID pads the frame to the exact size: every
	// byte of the ID is a byte of the payload, give or take the length
	// varint, which the loop settles.
	tr := makeTraces(t, p, 1)[0]
	var payload []byte
	for pad := maxSealedPayload; ; {
		tr.PodID = strings.Repeat("p", pad)
		raw, err := trace.AppendBatch(nil, p.ID, []*trace.Trace{tr})
		if err != nil {
			t.Fatal(err)
		}
		payload = append(appendSeqPrefix(nil, "limit", 1), raw...)
		if len(payload) == maxSealedPayload {
			break
		}
		pad -= len(payload) - maxSealedPayload
	}

	client := Dial(addr)
	defer client.Close()
	largest := pod.SealedBatch{ProgramID: p.ID, Count: 1, Payload: payload}
	if accepted, err := client.SubmitSealed([]pod.SealedBatch{largest}); err != nil || !accepted[0] {
		t.Fatalf("a payload of exactly %d bytes: accepted=%v err=%v", maxSealedPayload, accepted, err)
	}
	if st, _ := h.ProgramStats(p.ID); st.Ingested != 1 {
		t.Fatalf("ingested %d, want the 1 trace of the largest frame", st.Ingested)
	}

	// Nobody listens where this client would dial: an attempt to reach the
	// socket would surface as a dial error, not as ErrFrame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()
	nowhere := Dial(dead)
	defer nowhere.Close()
	over := pod.SealedBatch{ProgramID: p.ID, Count: 1, Payload: append(payload, 0)}
	accepted, err := nowhere.SubmitSealed([]pod.SealedBatch{largest, over})
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("a payload of %d bytes: err = %v, want ErrFrame", len(over.Payload), err)
	}
	if accepted[0] || accepted[1] {
		t.Fatalf("accepted = %v after a drain refused before the dial", accepted)
	}
}
