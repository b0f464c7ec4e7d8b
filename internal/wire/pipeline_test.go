package wire

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/hive"
	"repro/internal/leaktest"
	"repro/internal/prog"
	"repro/internal/trace"
)

// countingBackend is a backend stub that counts ingested traces and can be
// slowed down to hold frames in the pipeline.
type countingBackend struct {
	mu       sync.Mutex
	ingested int
	perCall  []int
	delay    time.Duration
}

func (c *countingBackend) SubmitColumnarSession(_ string, _ uint64, batch *trace.BatchView) (bool, error) {
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ingested += batch.Len()
	c.perCall = append(c.perCall, batch.Len())
	return false, nil
}
func (c *countingBackend) SubmitTraces([]*trace.Trace) error {
	return errors.New("a wire server ingests through SubmitColumnarSession only")
}
func (c *countingBackend) FixesSince(string, int) ([]fix.Fix, int, error) { return nil, 0, nil }
func (c *countingBackend) Guidance(string, int) ([]guidance.TestCase, error) {
	return nil, nil
}

func (c *countingBackend) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ingested
}

// plainBackend is a pod.HiveClient and nothing more.
type plainBackend struct{}

func (plainBackend) SubmitTraces([]*trace.Trace) error                 { return nil }
func (plainBackend) FixesSince(string, int) ([]fix.Fix, int, error)    { return nil, 0, nil }
func (plainBackend) Guidance(string, int) ([]guidance.TestCase, error) { return nil, nil }

// TestListenRequiresColumnarBackend: a backend without the one ingest
// method cannot serve submissions. The server says so at Listen, naming the
// method, instead of starting up and degrading every frame to something
// weaker than what the client sealed.
func TestListenRequiresColumnarBackend(t *testing.T) {
	srv := NewServer(plainBackend{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err == nil {
		_ = srv.Close()
		t.Fatalf("server over a backend without SubmitColumnarSession listens on %s", addr)
	}
	for _, want := range []string{"SubmitColumnarSession", "plainBackend"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Listen error %q does not name %s", err, want)
		}
	}
	if err := srv.Close(); err != nil {
		t.Errorf("closing a server that never listened: %v", err)
	}
}

// encodedBatch builds a MsgSubmitBatchColumnar payload of n minimal traces.
func encodedBatch(n int) []byte {
	batch := make([]*trace.Trace, n)
	for i := range batch {
		batch[i] = &trace.Trace{ProgramID: "p", Seq: uint64(i)}
	}
	payload, err := trace.AppendBatch(appendSeqPrefix(nil, "raw-conn", 1), "p", batch)
	if err != nil {
		panic(err)
	}
	return payload
}

// submitBatches seals batches for programID and drains them.
func submitBatches(c *Client, programID string, batches [][]*trace.Trace) ([]bool, error) {
	return c.SubmitSealed(c.SealTraceBatches(programID, batches))
}

// TestPipelinedAckOrdering writes a burst of submission frames with
// distinct batch sizes without reading a single ack, then collects all
// acks: they must come back in frame order, one per frame.
func TestPipelinedAckOrdering(t *testing.T) {
	backend := &countingBackend{}
	srv := NewServer(backend)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	sizes := []int{3, 1, 7, 2, 5, 4, 6, 1, 8, 2}
	for _, n := range sizes {
		if err := WriteFrame(conn, MsgSubmitBatchColumnar, encodedBatch(n)); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range sizes {
		respType, resp, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if err := checkAck(respType, resp, want); err != nil {
			t.Fatalf("ack %d (want %d traces): %v", i, want, err)
		}
	}
}

// TestPipelinedAcksUnderConcurrentClients runs several connections, each
// pipelining bursts of distinctly sized frames: every connection must see
// its own acks, in its own frame order.
func TestPipelinedAcksUnderConcurrentClients(t *testing.T) {
	leaktest.Check(t)
	backend := &countingBackend{}
	srv := NewServer(backend)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 8
	const frames = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for f := 0; f < frames; f++ {
				if err := WriteFrame(conn, MsgSubmitBatchColumnar, encodedBatch(c+f%3+1)); err != nil {
					errs <- err
					return
				}
			}
			for f := 0; f < frames; f++ {
				respType, resp, err := ReadFrame(conn)
				if err != nil {
					errs <- err
					return
				}
				if err := checkAck(respType, resp, c+f%3+1); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := 0
	for c := 0; c < clients; c++ {
		for f := 0; f < frames; f++ {
			want += c + f%3 + 1
		}
	}
	if got := backend.total(); got != want {
		t.Fatalf("ingested %d traces, want %d", got, want)
	}
}

// TestSlowConnDoesNotStallIngestion is the isolation regression test: a
// connection that floods frames and never reads its acks (so the server's
// per-connection pipeline backs up) must not stall ingestion from other
// connections.
func TestSlowConnDoesNotStallIngestion(t *testing.T) {
	leaktest.Check(t)
	backend := &countingBackend{}
	srv := NewServer(backend)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The hog: pump frames forever, never read an ack. Eventually its
	// writes block on the server's bounded queue + TCP buffers.
	hog, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	hogDead := make(chan struct{})
	go func() {
		defer close(hogDead)
		payload := encodedBatch(4)
		for {
			if err := WriteFrame(hog, MsgSubmitBatchColumnar, payload); err != nil {
				return // closed at test end
			}
		}
	}()

	// A well-behaved client must still complete round trips promptly.
	client := Dial(addr)
	defer client.Close()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if err := client.SubmitTraces([]*trace.Trace{{ProgramID: "p"}}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("well-behaved connection starved by a blocked one")
	}
	_ = hog.Close()
	<-hogDead
}

// captureWireTrace runs p once under full capture and returns the trace.
func captureWireTrace(t *testing.T, p *prog.Program, podID string, input []int64) *trace.Trace {
	t.Helper()
	col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
	m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	return col.Finish(podID, 0, res, input, trace.PrivacyHashed, "fleet")
}

// TestClientStreamsBatchesOverTCP drains many batches through the
// pipelined streaming path — more batches than the in-flight window — and
// checks exact ingestion; a server-side error (unknown program) must
// surface as a client error.
func TestClientStreamsBatchesOverTCP(t *testing.T) {
	p := buildCrashy(t)
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
	defer srv.Close()
	client := Dial(addr)
	defer client.Close()

	tmpl := captureWireTrace(t, p, "stream-pod", []int64{42})
	const nBatches = maxInflightFrames*3 + 5
	batches := make([][]*trace.Trace, nBatches)
	total := 0
	for i := range batches {
		n := i%4 + 1
		batches[i] = make([]*trace.Trace, n)
		for j := range batches[i] {
			tr := tmpl.Clone()
			tr.Seq = uint64(total + j)
			batches[i][j] = tr
		}
		total += n
	}
	accepted, err := submitBatches(client, p.ID, batches)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range accepted {
		if !ok {
			t.Fatalf("batch %d of %d not acknowledged", i, nBatches)
		}
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != int64(total) {
		t.Fatalf("ingested = %d, want %d", st.Ingested, total)
	}

	ghost := tmpl.Clone()
	ghost.ProgramID = "ghost"
	accepted, err = submitBatches(client, "ghost", [][]*trace.Trace{{ghost}})
	if err == nil {
		t.Fatal("stream for unknown program accepted")
	}
	if len(accepted) != 1 || accepted[0] {
		t.Fatalf("rejected stream reported accepted = %v", accepted)
	}
	// The connection survives a server-side rejection.
	if err := client.SubmitTraces(batches[0]); err != nil {
		t.Fatal(err)
	}
}

// TestStreamMidRejectionMarksLaterAcceptance pins the partial-failure
// contract at the protocol level: when the server rejects one mid-stream
// batch but ingests the ones after it, the client must mark those later
// batches accepted — re-submitting them would double-count.
func TestStreamMidRejectionMarksLaterAcceptance(t *testing.T) {
	p := buildCrashy(t)
	h, addr, stop := startServer(t)
	defer stop()
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	client := Dial(addr)
	defer client.Close()

	good := func(seq uint64) *trace.Trace {
		tr := captureWireTrace(t, p, "mid-pod", []int64{42})
		tr.Seq = seq
		return tr
	}
	bad := good(99)
	bad.ProgramID = "ghost"
	batches := [][]*trace.Trace{{good(0)}, {bad}, {good(1)}}
	accepted, err := submitBatches(client, p.ID, batches)
	if err == nil {
		t.Fatal("stream with a mismatched batch fully accepted")
	}
	want := []bool{true, false, true}
	for i := range want {
		if accepted[i] != want[i] {
			t.Fatalf("accepted = %v, want %v", accepted, want)
		}
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 2 {
		t.Fatalf("ingested = %d, want the 2 good batches", st.Ingested)
	}
}

// TestSubmitForMismatchRejectedOnAnyBackend pins that a per-program frame's
// all-or-nothing mismatch rejection does not depend on the backend checking
// (the hive does): a frame names its program once, so a batch with a stray
// trace never becomes one, and a stub backend that checks nothing yields the
// same rejection.
func TestSubmitForMismatchRejectedOnAnyBackend(t *testing.T) {
	backend := &countingBackend{}
	srv := NewServer(backend)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := Dial(addr)
	defer client.Close()

	stray := &trace.Trace{ProgramID: "B"}
	if _, err := submitBatches(client, "A", [][]*trace.Trace{{{ProgramID: "A"}, stray}}); err == nil {
		t.Fatal("mismatched per-program batch accepted by plain backend")
	}
	if got := backend.total(); got != 0 {
		t.Fatalf("stub backend ingested %d traces from a rejected batch", got)
	}
	// A matching batch flows, on the same connection.
	if _, err := submitBatches(client, "B", [][]*trace.Trace{{stray}}); err != nil {
		t.Fatal(err)
	}
	if got := backend.total(); got != 1 {
		t.Fatalf("stub backend ingested %d, want 1", got)
	}
}
