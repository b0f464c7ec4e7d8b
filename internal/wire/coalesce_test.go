package wire

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"

	"repro/internal/hive"
	"repro/internal/journal"
	"repro/internal/netshape"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/trace"
)

// coalesceFixture serves a fresh hive with the crashy program registered.
func coalesceFixture(t *testing.T, p *prog.Program) (*hive.Hive, *Server, string) {
	t.Helper()
	h := hive.New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return h, srv, addr
}

// chunkTraces cuts a flat trace slice into batches of per.
func chunkTraces(traces []*trace.Trace, per int) [][]*trace.Trace {
	var out [][]*trace.Trace
	for len(traces) > 0 {
		n := per
		if n > len(traces) {
			n = len(traces)
		}
		out = append(out, traces[:n])
		traces = traces[n:]
	}
	return out
}

// farLink puts a link whose round trip is twice compressRTTFloor in front
// of addr and returns the link's address: a client's hello over it measures
// a far link and engages compression on its own.
func farLink(t *testing.T, addr string) string {
	t.Helper()
	link, err := netshape.New(addr, netshape.Config{RTT: 2 * compressRTTFloor})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = link.Close() })
	return link.Addr()
}

// TestCoalescedRoundTrip drives the full coalesced path end to end — over a
// near link and over a far one, where the hello's round trip engages
// compression — and then re-submits copies of the identical
// sealed frames, as a caller whose acks were lost would: the hive must
// ingest every trace exactly once both times, because group acks are per
// inner frame and the (session, seq) dedup identity is sealed into the
// payload, not the transport framing.
func TestCoalescedRoundTrip(t *testing.T) {
	p := buildCrashy(t)
	for _, compress := range []bool{false, true} {
		h, _, addr := coalesceFixture(t, p)
		if compress {
			addr = farLink(t, addr)
		}
		client := Dial(addr)
		// 20-trace batches encode comfortably above the compression floor.
		batches := chunkTraces(makeTraces(t, p, 200), 20)
		sealed := client.SealTraceBatches(p.ID, batches)
		compressed := 0
		for _, sb := range sealed {
			if sb.Compressed {
				compressed++
			}
		}
		if compress && compressed == 0 {
			t.Fatalf("a far link sealed no compressed frames out of %d", len(sealed))
		}
		hc := client.connTo(addr)
		hc.mu.Lock()
		near := hc.helloRTT < compressRTTFloor
		hc.mu.Unlock()
		// Only a hello that measured a near link pins "no compression": on
		// a loaded host the loopback round trip itself can cross the floor.
		if !compress && near && compressed != 0 {
			t.Fatalf("client sealed %d compressed frames on a link it measured under the floor", compressed)
		}
		rounds := [][]pod.SealedBatch{sealed, cloneSealed(sealed)}
		for round, frames := range rounds {
			accepted, err := client.SubmitSealed(frames)
			if err != nil {
				t.Fatalf("compress=%v round %d: %v", compress, round, err)
			}
			for i, ok := range accepted {
				if !ok {
					t.Fatalf("compress=%v round %d: frame %d not accepted", compress, round, i)
				}
			}
			st, err := h.ProgramStats(p.ID)
			if err != nil {
				t.Fatal(err)
			}
			if st.Ingested != 200 {
				t.Fatalf("compress=%v round %d: ingested %d, want exactly 200", compress, round, st.Ingested)
			}
		}
		_ = client.Close()
	}
}

// TestCompressedJournalBytesIdentity extends the write-once-bytes guarantee
// across the compressed transport: what a durable hive journals for a
// compressed submission is byte-identical to the canonical decompressed
// payload the client sealed — compression is transport-only and invisible
// to the journal.
func TestCompressedJournalBytesIdentity(t *testing.T) {
	p := buildCrashy(t)
	dir := t.TempDir()
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := hive.New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Recover(store); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := Dial(farLink(t, addr))
	defer client.Close()

	batches := [][]*trace.Trace{makeTraces(t, p, 64), makeTraces(t, p, 40)}
	sealed := client.SealTraceBatches(p.ID, batches)
	var canonical [][]byte
	for i, sb := range sealed {
		if !sb.Compressed {
			t.Fatalf("frame %d not compressed over a far link", i)
		}
		_, _, comp, err := decodeSeqPrefix(sb.Payload)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := trace.DecompressSlab(comp, MaxFrameSize)
		if err != nil {
			t.Fatalf("frame %d: sealed payload does not inflate: %v", i, err)
		}
		canonical = append(canonical, append([]byte(nil), *raw...))
		trace.ReleaseSlab(raw)
	}
	if _, err := client.SubmitSealed(sealed); err != nil {
		t.Fatal(err)
	}
	_ = store.Close()

	reread, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reread.Close()
	var journaled [][]byte
	if _, err := reread.Replay(p.ID, func(r journal.Receipt) error {
		op := r.Op()
		if op.Kind == journal.OpBatchColumnar {
			journaled = append(journaled, append([]byte(nil), op.Raw...))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(journaled) != len(canonical) {
		t.Fatalf("journal holds %d columnar ops, want %d", len(journaled), len(canonical))
	}
	for i := range journaled {
		if string(journaled[i]) != string(canonical[i]) {
			t.Fatalf("journaled batch %d differs from canonical decompressed payload", i)
		}
	}
}

// TestCompressedBombRejectedOverWire sends a hostile compressed frame whose
// length prefix claims a gigabyte: the server must answer with an error ack
// — no inflation, no crash — and keep serving the connection.
func TestCompressedBombRejectedOverWire(t *testing.T) {
	p := buildCrashy(t)
	_, _, addr := coalesceFixture(t, p)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	bomb := appendSeqPrefix(nil, "hostile", 1)
	bomb = binary.AppendUvarint(bomb, 1<<30)
	bomb = append(bomb, []byte("this is not a deflate stream")...)
	if err := WriteFrame(conn, MsgSubmitBatchCompressed, bomb); err != nil {
		t.Fatal(err)
	}
	respType, resp, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ackErr := checkAck(respType, resp, 0); ackErr == nil {
		t.Fatal("gigabyte bomb claim was acknowledged cleanly")
	}

	// The connection survives: a well-formed submission still lands.
	enc, err := trace.EncodeBatch(p.ID, makeTraces(t, p, 3))
	if err != nil {
		t.Fatal(err)
	}
	good := appendSeqPrefix(nil, "hostile", 2)
	good = trace.CompressSlab(good, enc)
	if err := WriteFrame(conn, MsgSubmitBatchCompressed, good); err != nil {
		t.Fatal(err)
	}
	respType, resp, err = ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ackErr := checkAck(respType, resp, 3); ackErr != nil {
		t.Fatalf("valid frame after rejected bomb: %v", ackErr)
	}
}

// TestCoalescedMidGroupRejection corrupts one frame in the middle of a
// coalesced group: the submit surfaces the rejection, every other frame —
// before and after the bad one, in the same mega-frame — is marked
// accepted, and the hive ingests exactly those.
func TestCoalescedMidGroupRejection(t *testing.T) {
	p, _, err := proggen.Generate(proggen.Spec{Seed: 7003, Depth: 4, NumInputs: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, _, addr := coalesceFixture(t, p)
	client := Dial(addr)
	defer client.Close()

	const perBatch = 5
	sealed := client.SealTraceBatches(p.ID, makeBatches(t, p, 10, perBatch))
	const bad = 4
	sealed[bad].Payload = []byte("not a sequenced batch")

	accepted, err := client.SubmitSealed(sealed)
	if err == nil {
		t.Fatal("submit with a corrupt frame succeeded")
	}
	if strings.Contains(err.Error(), "unreachable after retry") {
		t.Fatalf("inner rejection misreported as a transport failure: %v", err)
	}
	for i, ok := range accepted {
		if want := i != bad; ok != want {
			t.Fatalf("frame %d accepted = %v, want %v", i, ok, want)
		}
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(9 * perBatch); st.Ingested != want {
		t.Fatalf("hive ingested %d traces, want exactly %d", st.Ingested, want)
	}
}

// TestRefusalIsNotRerouted: a hive that refuses a frame (its payload does
// not decode) or a read (it knows no such program) would refuse it again,
// wherever the client asked. The refusal comes back at once — one hello, one
// exchange each, no re-poll of the seeds — where a transport failure would
// re-poll and resend.
func TestRefusalIsNotRerouted(t *testing.T) {
	p := buildCrashy(t)
	_, _, addr := coalesceFixture(t, p)
	proxy := newFlakyProxy(t, addr, 0, 0)
	client := Dial(proxy.addr())
	defer client.Close()

	sealed := client.SealTraceBatches(p.ID, [][]*trace.Trace{makeTraces(t, p, 3)})
	sealed[0].Payload = []byte("not a sequenced batch")
	accepted, err := client.SubmitSealed(sealed)
	var fe *refusedError
	if !errors.As(err, &fe) || !strings.Contains(err.Error(), "wire: server:") || accepted[0] {
		t.Fatalf("corrupt frame: accepted=%v err=%v, want the server's refusal", accepted, err)
	}
	if hellos, replies := client.HelloCount(), proxy.replies.Load(); hellos != 1 || replies != 2 {
		t.Fatalf("corrupt frame: %d hellos and %d replies, want 1 hello and 1 submission", hellos, replies-int64(hellos))
	}

	if _, _, err := client.FixesSince("no-such-program", 0); !errors.As(err, &fe) {
		t.Fatalf("read of an unknown program: err=%v, want the server's refusal", err)
	}
	if hellos, replies := client.HelloCount(), proxy.replies.Load(); hellos != 1 || replies != 3 {
		t.Fatalf("refused read: %d hellos and %d replies in all, want 1 hello and 2 exchanges", hellos, replies-int64(hellos))
	}
}

// TestRetryErrorCarriesFeatures pins the diagnostic contract on the final
// retry error: when a greeted connection dies twice, the error says what the
// hello settled for this link — compressing or not — so "failed while
// compressing over a far link" and "failed on a near one" are distinguishable
// from logs alone. The connection's own error is the one checked: the client
// above it would re-poll the seed and try again. (What it says of redirects
// and the placement version is TestRetryErrorNamesRedirect's.)
func TestRetryErrorCarriesFeatures(t *testing.T) {
	p, _, err := proggen.Generate(proggen.Spec{Seed: 7004, Depth: 4, NumInputs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		far  bool
		want string
	}{
		{true, "(compressing)"},
		// Near, the hello's own round trip decides; either is named.
		{false, "compressing)"},
	} {
		_, _, addr := coalesceFixture(t, p)
		// Connection 0 forwards the hello ack, then kills on the first group
		// ack; connection 1 forwards one group ack, then kills the retry too.
		// 17 frames make two groups, so the retry has a second ack to lose.
		target := newFlakyProxy(t, addr, 1, 2).addr()
		if tc.far {
			target = farLink(t, target)
		}
		client := Dial(target)
		sealed := client.SealTraceBatches(p.ID, makeBatches(t, p, coalesceDepth+1, 4))
		_, serr := submitOn(client.connTo(target), sealed)
		_ = client.Close()
		if serr == nil {
			t.Fatal("expected the doubly-killed submit to fail")
		}
		for _, want := range []string{"unreachable after retry", tc.want} {
			if !strings.Contains(serr.Error(), want) {
				t.Fatalf("far=%v: retry error missing %q: %v", tc.far, want, serr)
			}
		}
	}
}
