package wire

import (
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hive"
	"repro/internal/journal"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/trace"
)

// makeTraces captures n real traces of the crashy program (mixed OK and
// crash outcomes) for submission tests.
func makeTraces(t *testing.T, p *prog.Program, n int) []*trace.Trace {
	t.Helper()
	out := make([]*trace.Trace, 0, n)
	for i := 0; i < n; i++ {
		col := trace.NewCollector(p, trace.CaptureFull, 0, uint64(i+1))
		input := []int64{int64(i * 13 % 160)}
		m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		out = append(out, col.Finish(fmt.Sprintf("pod-%d", i%3), uint64(i), res, input, trace.PrivacyHashed, "fleet"))
	}
	return out
}

// TestColumnarNegotiation pins the hello exchange: a server of this
// protocol version accepts the hello and is then submitted to, and a peer
// that answers another version — a foreign or older endpoint — fails the
// hello with an error naming both versions instead of being spoken to in
// frames it cannot read.
func TestColumnarNegotiation(t *testing.T) {
	p := buildCrashy(t)
	h, addr, stop := startServer(t)
	defer stop()
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	client := Dial(addr)
	defer client.Close()
	if err := client.Handshake(); err != nil {
		t.Fatal(err)
	}
	if _, err := submitBatches(client, p.ID, [][]*trace.Trace{makeTraces(t, p, 4)}); err != nil {
		t.Fatal(err)
	}
	if st, _ := h.ProgramStats(p.ID); st.Ingested != 4 {
		t.Errorf("ingested %d, want 4", st.Ingested)
	}

	// An endpoint that answers every frame with a hello ack of the next
	// protocol version.
	const other = ProtocolVersion + 1
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
			go func() {
				defer conn.Close()
				for {
					if _, _, err := ReadFrame(conn); err != nil {
						return
					}
					ack, _ := json.Marshal(HelloAckPayload{Version: other})
					if WriteFrame(conn, MsgHelloAck, ack) != nil {
						return
					}
				}
			}()
		}
	}()
	foreign := Dial(ln.Addr().String())
	defer foreign.Close()
	err = foreign.Handshake()
	if err == nil {
		t.Fatalf("hello against a server of protocol version %d succeeded", other)
	}
	for _, want := range []string{fmt.Sprintf("version %d", other), fmt.Sprintf("version %d", ProtocolVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("hello refusal %q does not name %q", err, want)
		}
	}
	if _, err := submitBatches(foreign, p.ID, [][]*trace.Trace{makeTraces(t, p, 1)}); err == nil {
		t.Fatal("submitted frames to a server of another protocol version")
	}
}

// TestColumnarJournalBytesIdentity is the write-once-bytes acceptance test:
// the bytes a durable hive journals for a columnar batch are byte-identical
// to the wire payload the pod sealed — pod → wire → hive → journal with one
// serialization, no re-encode.
func TestColumnarJournalBytesIdentity(t *testing.T) {
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
	client := Dial(addr)
	defer client.Close()

	batches := [][]*trace.Trace{makeTraces(t, p, 8), makeTraces(t, p, 5)}
	sealed := client.SealTraceBatches(p.ID, batches)
	var wireBatches [][]byte
	for _, sb := range sealed {
		// Strip the (session, seq) tag: the rest is the columnar batch.
		_, _, batchBytes, err := decodeSeqPrefix(sb.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if sb.Compressed {
			// A loaded host can push even the loopback hello past the
			// compression floor; the journal must then hold what inflates
			// out of the frame (TestCompressedJournalBytesIdentity).
			raw, err := trace.DecompressSlab(batchBytes, MaxFrameSize)
			if err != nil {
				t.Fatal(err)
			}
			batchBytes = append([]byte(nil), *raw...)
			trace.ReleaseSlab(raw)
		}
		wireBatches = append(wireBatches, batchBytes)
	}
	if _, err := client.SubmitSealed(sealed); err != nil {
		t.Fatal(err)
	}
	_ = store.Close()

	// Read the journal back: the batch ops must carry the wire bytes
	// verbatim.
	reread, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reread.Close()
	var journaled [][]byte
	if _, err := reread.Replay(p.ID, func(r journal.Receipt) error {
		op := r.Op()
		if op.Kind == journal.OpBatchColumnar {
			journaled = append(journaled, op.Raw)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(journaled) != len(wireBatches) {
		t.Fatalf("journal holds %d columnar ops, want %d", len(journaled), len(wireBatches))
	}
	for i := range journaled {
		if !reflect.DeepEqual(journaled[i], wireBatches[i]) {
			t.Fatalf("journaled batch %d differs from wire payload", i)
		}
	}
}

// TestColumnarRecoverEquivalence kills a hive that ingested columnar
// batches and recovers it from the journal: stats, failure aggregation, and
// minted fixes must survive byte-journaled replay exactly.
func TestColumnarRecoverEquivalence(t *testing.T) {
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
	client := Dial(addr)
	buf := pod.NewBufferedFor(client, p.ID)
	if err := buf.SubmitTraces(makeTraces(t, p, 64)); err != nil {
		t.Fatal(err)
	}
	if err := buf.Drain(); err != nil {
		t.Fatal(err)
	}
	before, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	_ = client.Close()
	_ = srv.Close()
	_ = store.Close()

	store2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	h2 := hive.New("fleet")
	if err := h2.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	if err := h2.Recover(store2); err != nil {
		t.Fatal(err)
	}
	after, err := h2.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	before.Failures, after.Failures = nil, nil
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("recovered state differs:\nbefore %+v\nafter  %+v", before, after)
	}
}
