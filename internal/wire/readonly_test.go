package wire

// Wire mapping of the hive's read-only breaker (PR 10): a backend that
// refuses ingest with pod.ErrReadOnly after persistent journal write
// failures. Clients get MsgBusy and resubmit the frame verbatim; the
// refusal is counted on the server, with or without admission control
// configured.

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/leaktest"
	"repro/internal/pod"
	"repro/internal/trace"
)

// readOnlyBackend refuses the first N session submissions with
// pod.ErrReadOnly — a hive whose journal breaker is open — then admits
// (the checkpoint landed).
type readOnlyBackend struct {
	remaining atomic.Int64
	calls     atomic.Int64
}

func (d *readOnlyBackend) SubmitColumnarSession(_ string, _ uint64, batch *trace.BatchView) (bool, error) {
	d.calls.Add(1)
	if d.remaining.Add(-1) >= 0 {
		return false, fmt.Errorf("stub hive: program %s refuses ingest: %w", batch.ProgramID(), pod.ErrReadOnly)
	}
	return false, nil
}
func (d *readOnlyBackend) SubmitTraces([]*trace.Trace) error              { return nil }
func (d *readOnlyBackend) FixesSince(string, int) ([]fix.Fix, int, error) { return nil, 0, nil }
func (d *readOnlyBackend) Guidance(string, int) ([]guidance.TestCase, error) {
	return nil, nil
}

// TestReadOnlyBusyNegotiated: a client sees MsgBusy for every read-only
// refusal and resubmits until the breaker closes; the server
// counts the refusals under ReadOnlyBusy, not BusyReplies — operators must
// be able to tell "overloaded" from "disk is failing".
func TestReadOnlyBusyNegotiated(t *testing.T) {
	leaktest.Check(t)
	backend := &readOnlyBackend{}
	backend.remaining.Store(3)
	srv := NewServer(backend)
	srv.Logf = t.Logf
	srv.Admission = &Admission{}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := buildCrashy(t)
	c := Dial(addr)
	c.RetryBase = time.Millisecond
	c.RetryCap = 10 * time.Millisecond
	defer c.Close()

	tr := captureWireTrace(t, p, "ro-pod", []int64{50})
	if err := c.SubmitTraces([]*trace.Trace{tr}); err != nil {
		t.Fatalf("submission through a recovering read-only owner failed: %v", err)
	}
	if got := backend.calls.Load(); got != 4 {
		t.Fatalf("backend saw %d calls, want 4 (3 read-only refusals + 1 admit)", got)
	}
	as := srv.AdmissionStats()
	if as.ReadOnlyBusy != 3 {
		t.Fatalf("ReadOnlyBusy = %d, want 3", as.ReadOnlyBusy)
	}
	if as.BusyReplies != 0 {
		t.Fatalf("read-only refusals leaked into BusyReplies (%d); the reasons must stay distinguishable", as.BusyReplies)
	}
}

// TestReadOnlyLegacyNoPacing: a connection that never said hello — raw
// frames, the oldest client there can be — gets the same answer as any
// other: MsgBusy on the first refusal, exactly one backend call, no retry
// loop or sleep inside the handler (read-only persists until a checkpoint
// lands, so waiting in the server cannot help), and the refusal is counted
// even though the server has no admission control at all.
func TestReadOnlyLegacyNoPacing(t *testing.T) {
	leaktest.Check(t)
	backend := &readOnlyBackend{}
	backend.remaining.Store(1 << 30) // the breaker never closes
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

	start := time.Now()
	if err := WriteFrame(conn, MsgSubmitBatchColumnar, encodedBatch(1)); err != nil {
		t.Fatal(err)
	}
	msgType, resp, err := ReadFrame(conn)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	var be *BusyError
	if err := checkAck(msgType, resp, 1); !errors.As(err, &be) {
		t.Fatalf("read-only refusal answered with message type %d (%v), want MsgBusy", msgType, err)
	}
	if !strings.Contains(be.Reason, "read-only") {
		t.Fatalf("busy reply hides the read-only cause: %q", be.Reason)
	}
	if got := backend.calls.Load(); got != 1 {
		t.Fatalf("backend saw %d calls, want exactly 1 (no in-handler retry for a persistent condition)", got)
	}
	if elapsed > defaultRetryAfter {
		t.Fatalf("read-only reply took %v; the handler waited on a non-transient condition", elapsed)
	}
	if got := srv.AdmissionStats().ReadOnlyBusy; got != 1 {
		t.Fatalf("ReadOnlyBusy = %d on an admission-less server, want 1", got)
	}
}
