package wire

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/hive"
	"repro/internal/leaktest"
	"repro/internal/pod"
	"repro/internal/trace"
)

// TestBackoffDelaySchedule pins the pure backoff schedule: exponential
// doubling from base, capped at ceil, floored at the server's hint, with
// proportional jitter on top. jitter=0 gives the deterministic schedule.
func TestBackoffDelaySchedule(t *testing.T) {
	base, ceil := 10*time.Millisecond, 100*time.Millisecond
	want := []time.Duration{10, 20, 40, 80, 100, 100}
	for attempt, w := range want {
		if got := backoffDelay(base, ceil, attempt, 0, 0); got != w*time.Millisecond {
			t.Errorf("attempt %d: %v, want %v", attempt, got, w*time.Millisecond)
		}
	}
	// The server's retry-after hint floors the early attempts.
	if got := backoffDelay(base, ceil, 0, 60*time.Millisecond, 0); got != 60*time.Millisecond {
		t.Errorf("hinted attempt 0: %v, want 60ms", got)
	}
	if got := backoffDelay(base, ceil, 3, 60*time.Millisecond, 0); got != 80*time.Millisecond {
		t.Errorf("hinted attempt 3: %v, want 80ms (schedule above the floor)", got)
	}
	// Huge attempt counts clamp instead of overflowing the shift.
	if got := backoffDelay(base, ceil, 1000, 0, 0); got != ceil {
		t.Errorf("attempt 1000: %v, want ceil %v", got, ceil)
	}
	// Full jitter adds up to 50% of the chosen delay.
	if got := backoffDelay(base, ceil, 1, 0, 1); got != 30*time.Millisecond {
		t.Errorf("jittered attempt 1: %v, want 30ms", got)
	}
	// Zero-value knobs fall back to the package defaults.
	if got := backoffDelay(0, 0, 0, 0, 0); got != defaultRetryBase {
		t.Errorf("default attempt 0: %v, want %v", got, defaultRetryBase)
	}
}

// startAdmissionServer is startServer with an Admission config armed.
func startAdmissionServer(t *testing.T, cfg Admission) (*hive.Hive, *Server, string) {
	t.Helper()
	h := hive.New("fleet")
	srv := NewServer(h)
	srv.Logf = t.Logf
	srv.Admission = &cfg
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return h, srv, addr
}

// TestBusyRateLimit drives a client through a tight session rate limit:
// every submission must eventually land (the busy reply is "not now", never
// "never"), the server must answer MsgBusy, and the client must retry on
// the same connection — one hello for the whole run, no reconnect storm.
func TestBusyRateLimit(t *testing.T) {
	leaktest.Check(t)
	p := buildCrashy(t)
	// Burst must be pinned: left to default it becomes max(4*rate, 256)
	// and the whole test rides through for free.
	h, srv, addr := startAdmissionServer(t, Admission{SessionRate: 200, SessionBurst: 4})
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	client := Dial(addr)
	client.RetryBase = time.Millisecond
	client.RetryCap = 50 * time.Millisecond
	defer client.Close()

	tr := captureWireTrace(t, p, "busy-pod", []int64{50})
	const frames = 30
	for i := 0; i < frames; i++ {
		if err := client.SubmitTraces([]*trace.Trace{tr.Clone()}); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}

	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != frames {
		t.Fatalf("ingested %d of %d admitted frames", st.Ingested, frames)
	}
	as := srv.AdmissionStats()
	if as.BusyReplies == 0 {
		t.Fatal("rate limit never answered MsgBusy")
	}
	if got := client.HelloCount(); got != 1 {
		t.Fatalf("client ran %d hello exchanges; busy retries must reuse the connection", got)
	}
}

// debitCost returns the cheapest observed per-frame cost of debit with n
// sessions taking turns.
func debitCost(n int) time.Duration {
	a := newAdmissionState(Admission{SessionRate: 1e9})
	ids := make([]string, n)
	now := time.Unix(0, 0)
	for i := range ids {
		ids[i] = fmt.Sprintf("sess-%d", i)
		a.debit(ids[i], 1, now)
	}
	best := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for _, id := range ids {
			a.debit(id, 1, now)
		}
		best = min(best, time.Since(start)/time.Duration(n))
	}
	return max(best, time.Nanosecond)
}

// TestAdmissionTableHasNoCliff: with more sessions taking turns than the
// bucket table holds — a hostile fleet minting a session per frame — a
// debit costs what a map insert costs. The LRU table paid a 4096-entry
// victim scan under the server-wide lock for every such frame, ~250×. A
// session the table dropped is admitted with a full bucket.
func TestAdmissionTableHasNoCliff(t *testing.T) {
	const below = 2048 // fits the table by either bound: every debit finds its bucket
	const past = 4 * 4096
	at, beyond := debitCost(below), debitCost(past)
	t.Logf("debit: %v per frame with %d sessions, %v with %d", at, below, beyond, past)
	if beyond > 10*at {
		t.Fatalf("a debit costs %v with %d sessions against %v with %d: more than 10×", beyond, past, at, below)
	}

	a := newAdmissionState(Admission{SessionRate: 1, SessionBurst: 2})
	now := time.Unix(0, 0)
	if _, ok := a.debit("first", 2, now); !ok {
		t.Fatal("a fresh session's full bucket refused its burst")
	}
	if _, ok := a.debit("first", 1, now); ok {
		t.Fatal("a drained bucket admitted a frame")
	}
	for i := 0; i < past; i++ {
		a.debit(fmt.Sprintf("sess-%d", i), 1, now)
	}
	if r := a.buckets.ResidentBytes(); r > admissionBucketBudget {
		t.Fatalf("bucket table holds %d bytes, budget %d", r, admissionBucketBudget)
	}
	if _, ok := a.debit("first", 2, now); !ok {
		t.Fatal("a session the table dropped did not restart with a full bucket")
	}
}

// TestSlowLorisEvicted pins the progress-based deadline: a connection
// dribbling a started frame is evicted and counted, while a connection
// that is merely idle — no frame started — may sit far past the timeout
// and still complete a frame normally afterwards.
func TestSlowLorisEvicted(t *testing.T) {
	leaktest.Check(t)
	backend := &countingBackend{}
	srv := NewServer(backend)
	srv.Logf = t.Logf
	srv.Admission = &Admission{FrameTimeout: 50 * time.Millisecond}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The loris: one header byte, then silence.
	loris, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	if _, err := loris.Write([]byte{0x00}); err != nil {
		t.Fatal(err)
	}
	_ = loris.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := ReadFrame(loris); err == nil {
		t.Fatal("dribbling connection was answered instead of evicted")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.AdmissionStats().SlowLorisEvicted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("eviction never counted")
		}
		time.Sleep(time.Millisecond)
	}

	// The idler: no bytes at all for several timeouts, then a full valid
	// frame. The clock only starts at a frame's first byte.
	idler, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idler.Close()
	time.Sleep(200 * time.Millisecond)
	if err := WriteFrame(idler, MsgSubmitBatchColumnar, encodedBatch(1)); err != nil {
		t.Fatal(err)
	}
	respType, resp, err := ReadFrame(idler)
	if err != nil {
		t.Fatalf("idle-then-submit connection was evicted: %v", err)
	}
	if err := checkAck(respType, resp, 1); err != nil {
		t.Fatal(err)
	}
}

// TestConnCaps pins the accept-time hard caps: connections past MaxConns
// are closed before they cost a goroutine, and counted.
func TestConnCaps(t *testing.T) {
	leaktest.Check(t)
	backend := &countingBackend{}
	srv := NewServer(backend)
	srv.Logf = t.Logf
	srv.Admission = &Admission{MaxConns: 2}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		// Complete one frame so the slot is provably serving, not racing
		// the accept loop.
		if err := WriteFrame(c, MsgSubmitBatchColumnar, encodedBatch(1)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFrame(c); err != nil {
			t.Fatal(err)
		}
	}

	over, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err) // dial lands in the listen backlog regardless
	}
	defer over.Close()
	_ = over.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := ReadFrame(over); err == nil {
		t.Fatal("connection over MaxConns was served")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.AdmissionStats().ConnsRejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejection never counted")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHalfOpenCap pins the slow-loris slot budget: connections that have
// not completed one valid frame occupy MaxHalfOpen slots, and the flood
// past it is turned away while an established connection keeps working.
func TestHalfOpenCap(t *testing.T) {
	leaktest.Check(t)
	backend := &countingBackend{}
	srv := NewServer(backend)
	srv.Logf = t.Logf
	srv.Admission = &Admission{MaxHalfOpen: 2}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Establish one connection (completes a frame, leaves half-open state).
	good, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := WriteFrame(good, MsgSubmitBatchColumnar, encodedBatch(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(good); err != nil {
		t.Fatal(err)
	}

	// Flood with silent connections; past the cap they must be rejected.
	var idle []net.Conn
	defer func() {
		for _, c := range idle {
			_ = c.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.AdmissionStats().ConnsRejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("half-open flood was never rejected")
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		idle = append(idle, c)
	}

	// The established connection is unaffected by the flood.
	if err := WriteFrame(good, MsgSubmitBatchColumnar, encodedBatch(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(good); err != nil {
		t.Fatalf("established connection starved by half-open flood: %v", err)
	}
}

// deferringBackend defers the first N session submissions with
// pod.ErrDeferred — a hive shedding low-rarity work — then admits.
type deferringBackend struct {
	remaining atomic.Int64
	calls     atomic.Int64
}

func (d *deferringBackend) SubmitColumnarSession(string, uint64, *trace.BatchView) (bool, error) {
	d.calls.Add(1)
	if d.remaining.Add(-1) >= 0 {
		return false, fmt.Errorf("stub hive shedding: %w", pod.ErrDeferred)
	}
	return false, nil
}
func (d *deferringBackend) SubmitTraces([]*trace.Trace) error              { return nil }
func (d *deferringBackend) FixesSince(string, int) ([]fix.Fix, int, error) { return nil, 0, nil }
func (d *deferringBackend) Guidance(string, int) ([]guidance.TestCase, error) {
	return nil, nil
}

// TestRoutedBusyBackoff pins the fleet-level busy discipline: when an
// owner defers (sheds) a batch, the Router backs off and resubmits to the
// SAME owner — it does not treat busy as a routing failure, so there is no
// seed re-poll and no hello storm. The deferral count is exact: one
// backend call per busy round plus the final admit. The owner defers two
// more batches than the client's own busy rounds cover, so the router's
// paced round is the one that gets the frame in.
func TestRoutedBusyBackoff(t *testing.T) {
	leaktest.Check(t)
	const deferrals = defaultBusyRetries + 2
	backend := &deferringBackend{}
	backend.remaining.Store(deferrals)
	srv := NewServer(backend)
	srv.Logf = t.Logf
	srv.Admission = &Admission{}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := buildCrashy(t)
	r := NewRouter(addr)
	r.RetryBase = time.Millisecond
	r.RetryCap = 10 * time.Millisecond
	defer r.Close()

	tr := captureWireTrace(t, p, "routed-pod", []int64{50})
	if err := r.SubmitTraces([]*trace.Trace{tr}); err != nil {
		t.Fatalf("submission through a shedding owner failed: %v", err)
	}

	// The deferrals + the admit: the client's busy rounds and the router's
	// extra paced attempt resubmitted the same sealed frame, nothing more.
	if got := backend.calls.Load(); got != deferrals+1 {
		t.Fatalf("backend saw %d calls, want %d (%d deferrals + 1 admit)", got, deferrals+1, deferrals)
	}
	if got := srv.AdmissionStats().BusyReplies; got != deferrals {
		t.Fatalf("server sent %d busy replies, want %d", got, deferrals)
	}
	// Busy is not a routing signal: one owner client, one hello, no
	// placement re-poll.
	r.mu.Lock()
	nclients := len(r.clients)
	var hellos int
	for _, c := range r.clients {
		hellos += c.HelloCount()
	}
	r.mu.Unlock()
	if nclients != 1 || hellos != 1 {
		t.Fatalf("router dialed %d clients with %d hellos; busy must not trigger a seed re-poll", nclients, hellos)
	}

	// Contrast: a generic transport error DOES force a refresh.
	r.noteRoutingError(errors.New("connection reset by peer"))
	r.mu.Lock()
	hellos = 0
	for _, c := range r.clients {
		hellos += c.HelloCount()
	}
	r.mu.Unlock()
	if hellos < 2 {
		t.Fatalf("generic routing error did not re-poll seeds (hellos=%d)", hellos)
	}
}
