package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/trace"
)

// sealTraces builds n traces of program programID from nothing but their
// index, so a sealed frame of them has the same bytes on every run and at
// every commit.
func sealTraces(programID string, n int) []*trace.Trace {
	out := make([]*trace.Trace, n)
	for i := range out {
		tr := &trace.Trace{
			ProgramID:   programID,
			PodID:       fmt.Sprintf("pod-%d", i%3),
			Seq:         uint64(i + 1),
			Mode:        trace.CaptureFull,
			Outcome:     prog.OutcomeOK,
			FaultPC:     -1,
			AssertID:    -1,
			Steps:       int64(100 + i),
			InputDigest: fmt.Sprintf("%024x", i),
			Privacy:     trace.PrivacyHashed,
		}
		for j := 0; j < 20; j++ {
			tr.Branches = append(tr.Branches, trace.BranchEvent{ID: int32((i*7 + j) % 13), Taken: (i+j)%2 == 0})
		}
		tr.Syscalls = []trace.SyscallEvent{{Sysno: int64(i % 4), Ret: int64(i)}}
		if i%5 == 0 {
			tr.Outcome, tr.FaultPC = prog.OutcomeCrash, int32(40+i)
		}
		out[i] = tr
	}
	return out
}

// sealGolden is what sealFrameLocked produced, before payload buffers were
// recycled, for session "0123456789abcdef", seq 7 and sealTraces("golden",
// n): the length and SHA-256 of each payload. The mismatched case seals a
// batch whose traces name another program: the tag alone.
var sealGolden = []struct {
	name       string
	compress   bool
	n          int
	mismatch   bool
	compressed bool
	size       int
	sha256     string
}{
	{"plain", false, 16, false, false, 1198, "d0ccc53503c17b7d533fdf152109fccbd38dee85d9b9e4b6ecbb3639c5b1155a"},
	{"compressed", true, 16, false, true, 301, "25edd90f5c441e6f62c6f00c45b236d487595bec8170e9f6d3fd229423bf45a7"},
	{"plain-one", false, 1, false, false, 106, "30c33d64ee601f287f8e4df1c16f1fd57172ce57284a833652e9c8514f36800f"},
	{"mismatched", false, 4, true, false, 18, "7599f70769bc33d495154ddc28e73d19c2a5161d2652142c1523e473ab76c225"},
}

// TestSealedFrameBytesGolden pins the bytes on the wire: a frame sealed into
// a fresh buffer and one sealed into a dirty recycled buffer are both
// byte-identical to what the sealer produced before buffers were recycled,
// compressed and uncompressed.
func TestSealedFrameBytesGolden(t *testing.T) {
	for _, g := range sealGolden {
		c := &Client{session: "0123456789abcdef", greeted: true, compressing: g.compress}
		traces := sealTraces("golden", g.n)
		if g.mismatch {
			traces[g.n-1] = sealTraces("other", 1)[0]
		}
		check := func(how string, payload []byte, compressed bool) {
			t.Helper()
			sum := sha256.Sum256(payload)
			if compressed != g.compressed || len(payload) != g.size || hex.EncodeToString(sum[:]) != g.sha256 {
				t.Errorf("%s, %s: sealed %d bytes (compressed=%v) sha256 %x; want %d bytes (compressed=%v) sha256 %s",
					g.name, how, len(payload), compressed, sum, g.size, g.compressed, g.sha256)
			}
		}
		c.mu.Lock()
		fresh, compressed := c.sealFrameLocked(7, "golden", traces)
		check("fresh buffer", fresh, compressed)
		dirty := bytes.Repeat([]byte{0xa5}, 2*len(fresh)+64)
		c.recycleLocked(dirty)
		reused, compressed := c.sealFrameLocked(7, "golden", traces)
		check("recycled buffer", reused, compressed)
		if &reused[0] != &dirty[0] {
			t.Errorf("%s: the seal did not reuse the recycled buffer", g.name)
		}
		c.mu.Unlock()
	}
}

// TestResubmitAcknowledgedFrameFails: SubmitSealed consumes the frames it
// acknowledges — the payload goes back to the client's free list and the
// caller's Payload is nil — and leaves the rest as they were. Resubmitting a
// consumed frame, through a Client or a Router, fails with ErrFrame naming
// the frame before anything is dialed: its bytes may already carry another
// frame.
func TestResubmitAcknowledgedFrameFails(t *testing.T) {
	p := buildCrashy(t)
	h, _, addr := coalesceFixture(t, p)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()

	client := Dial(addr)
	defer client.Close()
	router := NewRouter(addr)
	defer router.Close()
	for _, tc := range []struct {
		name string
		ss   pod.SealedStreamer
		// nowhere is the same kind of streamer for an address nobody
		// listens on: reaching for the socket would fail with a dial
		// error, not ErrFrame.
		nowhere pod.SealedStreamer
	}{
		{"client", client, Dial(dead)},
		{"router", router, NewRouter(dead)},
	} {
		before, err := h.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		sealed := tc.ss.SealTraceBatches(p.ID, [][]*trace.Trace{makeTraces(t, p, 3), makeTraces(t, p, 2), makeTraces(t, p, 4)})
		corrupt := []byte("not a sequenced batch")
		sealed[1].Payload = corrupt
		accepted, err := tc.ss.SubmitSealed(sealed)
		if err == nil {
			t.Fatalf("%s: a drain with a corrupt frame succeeded", tc.name)
		}
		if !accepted[0] || accepted[1] || !accepted[2] {
			t.Fatalf("%s: accepted = %v, want [true false true]", tc.name, accepted)
		}
		if sealed[0].Payload != nil || sealed[2].Payload != nil {
			t.Fatalf("%s: an acknowledged frame kept its payload", tc.name)
		}
		if string(sealed[1].Payload) != "not a sequenced batch" || &sealed[1].Payload[0] != &corrupt[0] {
			t.Fatalf("%s: the unacknowledged frame was touched", tc.name)
		}

		// Frame 1 is unacknowledged and intact, frame 2 consumed: the
		// resubmission names frame 1 of the two it holds.
		accepted, err = tc.nowhere.SubmitSealed(sealed[1:])
		if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "frame 1 ") {
			t.Fatalf("%s: resubmitting a consumed frame: err = %v, want ErrFrame naming frame 1", tc.name, err)
		}
		if accepted[0] || accepted[1] {
			t.Fatalf("%s: accepted = %v after a drain refused before the dial", tc.name, accepted)
		}
		after, err := h.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.Ingested - before.Ingested; got != 7 {
			t.Fatalf("%s: ingested %d traces, want the 7 of the two good frames", tc.name, got)
		}
	}
}
