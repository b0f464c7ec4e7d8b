package wire

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/hive"
	"repro/internal/leaktest"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/trace"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgError, []byte(`{"error":"no"}`)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError || string(payload) != `{"error":"no"}` {
		t.Fatalf("got %v %q", typ, payload)
	}
}

// TestMsgTypeNumbers pins the protocol's numbers: deleting the per-trace
// submission frames (1, 2, 8, 9) must not renumber what survived them.
func TestMsgTypeNumbers(t *testing.T) {
	for want, got := range map[MsgType]MsgType{
		3: MsgGetFixes, 4: MsgFixes, 5: MsgGetGuidance, 6: MsgGuidance, 7: MsgError,
		10: MsgHello, 11: MsgHelloAck, 12: MsgAckBin, 13: MsgSubmitBatchColumnar,
		14: MsgCoalesced, 15: MsgSubmitBatchCompressed, 16: MsgRedirect, 17: MsgBusy,
	} {
		if got != want {
			t.Errorf("message type %d is now %d", want, got)
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// TestTraceBatchRoundTrip: a sealed frame is the (session, seq) tag followed
// by the canonical columnar encoding of the batch, and both come back out.
func TestTraceBatchRoundTrip(t *testing.T) {
	c := &hiveConn{addr: "unreachable.invalid:1", session: newSessionID()}
	batch := []*trace.Trace{{ProgramID: "p", PodID: "a", Mode: trace.CaptureFull, Seq: 1}, {ProgramID: "p", PodID: "b", Mode: trace.CaptureFull, Seq: 2}}
	payload, compressed := c.sealFrameLocked(7, "p", batch)
	if compressed {
		t.Fatal("an un-negotiated client compressed")
	}
	session, seq, body, err := decodeSeqPrefix(payload)
	if err != nil {
		t.Fatal(err)
	}
	if session != c.session || seq != 7 {
		t.Fatalf("tag = (%q, %d), want (%q, 7)", session, seq, c.session)
	}
	want, err := trace.EncodeBatch("p", batch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("frame body is not the canonical batch encoding")
	}
	view, err := trace.DecodeBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Release()
	if view.ProgramID() != "p" || view.Len() != 2 || view.PodID(1) != "b" || view.Seq(1) != 2 {
		t.Fatalf("decoded batch: program %q, %d traces", view.ProgramID(), view.Len())
	}

	// A batch with a stray trace has no encoding: the tag is sealed alone,
	// which no server accepts as a batch.
	stray := []*trace.Trace{{ProgramID: "p"}, {ProgramID: "q"}}
	payload, _ = c.sealFrameLocked(8, "p", stray)
	_, _, body, err = decodeSeqPrefix(payload)
	if err != nil || len(body) != 0 {
		t.Fatalf("mismatched batch sealed %d body bytes, err %v; want the tag alone", len(body), err)
	}
	if _, err := trace.DecodeBatch(body); err == nil {
		t.Fatal("the empty body decodes as a batch")
	}
}

func TestTraceBatchRejectsGarbage(t *testing.T) {
	if _, _, _, err := decodeSeqPrefix([]byte{0xFF}); err == nil {
		t.Error("truncated session length accepted")
	}
	if _, _, _, err := decodeSeqPrefix([]byte{200, 1, 'a', 'b'}); err == nil {
		t.Error("session length past the payload accepted")
	}
	if _, _, _, err := decodeSeqPrefix([]byte{1, 's', 0xFF}); err == nil {
		t.Error("truncated sequence number accepted")
	}
	if _, _, _, err := decodeAckBin([]byte{3}); err == nil {
		t.Error("ack without its flags byte accepted")
	}
}

// buildCrashy crashes for input in [100,110).
func buildCrashy(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("crashy-wire", 1)
	hi, end := b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpGE, 100, hi)
	b.Jmp(end)
	b.Bind(hi)
	inner := b.NewLabel()
	b.BrImm(0, prog.CmpLT, 110, inner)
	b.Jmp(end)
	b.Bind(inner)
	b.Const(1, 0)
	b.Div(2, 1, 1)
	b.Bind(end)
	b.Halt()
	return b.MustBuild()
}

func startServer(t *testing.T) (*hive.Hive, string, func()) {
	t.Helper()
	h := hive.New("fleet")
	srv := NewServer(h)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return h, addr, func() { _ = srv.Close() }
}

func TestEndToEndOverTCP(t *testing.T) {
	leaktest.Check(t)
	p := buildCrashy(t)
	h, addr, stop := startServer(t)
	defer stop()
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}

	client := Dial(addr)
	defer client.Close()

	pd, err := pod.New(pod.Config{
		Program: p, ID: "tcp-pod", Hive: client,
		Privacy: trace.PrivacyHashed, Salt: "fleet", BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Crash over the network; fix comes back over the network.
	if _, err := pd.RunOnce([]int64{105}); err != nil {
		t.Fatal(err)
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 1 || st.FixCount != 1 {
		t.Fatalf("hive stats = %+v", st)
	}
	if err := pd.SyncFixes(); err != nil {
		t.Fatal(err)
	}
	res, err := pd.RunOnce([]int64{105})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != prog.OutcomeOK {
		t.Fatalf("post-fix outcome over TCP = %v", res.Outcome)
	}

	// Guidance over the network.
	if _, err := pd.PullGuidance(4); err != nil {
		t.Fatal(err)
	}
}

func TestServerErrorsSurfaceAsClientErrors(t *testing.T) {
	_, addr, stop := startServer(t)
	defer stop()
	client := Dial(addr)
	defer client.Close()

	// Unregistered program.
	err := client.SubmitTraces([]*trace.Trace{{ProgramID: "ghost", Mode: trace.CaptureFull}})
	if err == nil || !strings.Contains(err.Error(), "unknown program") {
		t.Fatalf("err = %v, want unknown-program", err)
	}
	if _, _, err := client.FixesSince("ghost", 0); err == nil {
		t.Fatal("FixesSince for ghost program should error")
	}
	if _, err := client.Guidance("ghost", 1); err == nil {
		t.Fatal("Guidance for ghost program should error")
	}
}

func TestManyConcurrentClients(t *testing.T) {
	leaktest.Check(t)
	p := buildCrashy(t)
	h, addr, stop := startServer(t)
	defer stop()
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}

	const pods = 16
	const runs = 20
	var wg sync.WaitGroup
	errs := make(chan error, pods)
	for i := 0; i < pods; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := Dial(addr)
			defer client.Close()
			pd, err := pod.New(pod.Config{
				Program: p, ID: "conc-" + string(rune('a'+i)), Hive: client,
				Salt: "fleet", Seed: uint64(i), BatchSize: 4,
			})
			if err != nil {
				errs <- err
				return
			}
			for r := int64(0); r < runs; r++ {
				if _, err := pd.RunOnce([]int64{r * 7 % 256}); err != nil {
					errs <- err
					return
				}
			}
			errs <- pd.Flush()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st, _ := h.ProgramStats(p.ID)
	if st.Ingested != pods*runs {
		t.Fatalf("ingested = %d, want %d", st.Ingested, pods*runs)
	}
}

func TestClientReconnects(t *testing.T) {
	p := buildCrashy(t)
	h, addr, stop := startServer(t)
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	client := Dial(addr)
	defer client.Close()

	tr := captureWireTrace(t, p, "reconnect-pod", []int64{50})
	if err := client.SubmitTraces([]*trace.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	// Kill the server; a new one on the same address picks up.
	stop()
	srv2 := NewServer(h)
	srv2.Logf = t.Logf
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("address reuse unavailable: %v", err)
	}
	defer srv2.Close()

	if err := client.SubmitTraces([]*trace.Trace{tr}); err != nil {
		t.Fatalf("client did not reconnect: %v", err)
	}
	if st, _ := h.ProgramStats(p.ID); st.Ingested != 2 {
		t.Fatalf("ingested %d traces across the reconnect, want 2", st.Ingested)
	}
}

func TestConcurrentClientsAcrossPrograms(t *testing.T) {
	// Multi-client ingest across several registered programs at once: each
	// program is its own hive shard, so concurrent connections reporting
	// about different programs must neither contend incorrectly nor bleed
	// state — and the crash signature each program's fleet hits must mint
	// exactly one fix (single-flight over the wire).
	h, addr, stop := startServer(t)
	defer stop()

	const programs = 4
	progs := make([]*prog.Program, programs)
	for i := range progs {
		b := prog.NewBuilder("wire-multi-"+string(rune('a'+i)), 1)
		hi, end := b.NewLabel(), b.NewLabel()
		b.Input(0, 0)
		b.BrImm(0, prog.CmpGE, 100, hi)
		b.Jmp(end)
		b.Bind(hi)
		inner := b.NewLabel()
		b.BrImm(0, prog.CmpLT, 110, inner)
		b.Jmp(end)
		b.Bind(inner)
		b.Const(1, 0)
		b.Div(2, 1, 1)
		b.Bind(end)
		b.Halt()
		progs[i] = b.MustBuild()
		if err := h.RegisterProgram(progs[i]); err != nil {
			t.Fatal(err)
		}
	}

	const clientsPerProgram = 3
	const runs = 30
	var wg sync.WaitGroup
	errs := make(chan error, programs*clientsPerProgram)
	for pi := 0; pi < programs; pi++ {
		for c := 0; c < clientsPerProgram; c++ {
			wg.Add(1)
			go func(pi, c int) {
				defer wg.Done()
				client := Dial(addr)
				defer client.Close()
				pd, err := pod.New(pod.Config{
					Program: progs[pi],
					ID:      fmt.Sprintf("mp-%d-%d", pi, c),
					Hive:    client, Salt: "fleet",
					Seed: uint64(pi*10 + c), BatchSize: 4,
				})
				if err != nil {
					errs <- err
					return
				}
				for r := 0; r < runs; r++ {
					// Sweep through the crash zone once per client.
					if _, err := pd.RunOnce([]int64{int64((r * 7) % 128)}); err != nil {
						errs <- err
						return
					}
				}
				errs <- pd.Flush()
			}(pi, c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for pi := 0; pi < programs; pi++ {
		st, err := h.ProgramStats(progs[pi].ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(clientsPerProgram * runs); st.Ingested != want {
			t.Errorf("program %d ingested = %d, want %d", pi, st.Ingested, want)
		}
		if st.FixCount != 1 || st.Epoch != 1 {
			t.Errorf("program %d fixes=%d epoch=%d, want exactly 1/1", pi, st.FixCount, st.Epoch)
		}
	}
}
