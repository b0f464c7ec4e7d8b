// Package wire implements the pod↔hive telemetry protocol over TCP:
// length-prefixed frames carrying a type byte and a payload (columnar trace
// batches for the hot path, JSON for control messages). The Client satisfies
// pod.HiveClient, so a pod is pointed either at an in-process hive or at a
// remote one without code changes; the Server wraps a pod.HiveClient
// backend that ingests columnar batches (normally *hive.Hive).
//
// There is one protocol generation and nothing about it is negotiated: a
// client opens with MsgHello naming ProtocolVersion — a peer that answers
// another version is refused — submits (session, seq)-tagged columnar
// batches, plain or DEFLATE-compressed, coalesced into mega-frames, and is
// answered with a binary ack, MsgBusy (not now) or MsgRedirect (not here).
// The hello settles two things only: the client times it as its RTT probe
// (which decides whether compressing is worth the CPU), and a sharded server
// answers it with its placement map. MaxFrameSize bounds every frame on every
// connection.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// MsgType discriminates frames.
type MsgType uint8

// Frame types. The numbers are the protocol: 1, 2, 8 and 9 belonged to the
// per-trace submission frames of earlier generations and stay reserved.
const (
	MsgGetFixes    MsgType = 3
	MsgFixes       MsgType = 4
	MsgGetGuidance MsgType = 5
	MsgGuidance    MsgType = 6
	MsgError       MsgType = 7
	// MsgHello opens a connection: the client names the protocol version it
	// speaks (JSON HelloPayload) and a server that speaks it answers
	// MsgHelloAck with the same version and, on a sharded fleet, its
	// placement map. Any other version — a hello from before versions,
	// carrying feature strings, reads as version 0 — is answered MsgError.
	MsgHello MsgType = 10
	// MsgHelloAck accepts a hello.
	MsgHelloAck MsgType = 11
	// MsgAckBin is the binary acknowledgement of a submission: uvarint
	// accepted count, a flags byte (bit 0 = duplicate), then the error
	// string (empty on success). It spares the ingest hot path a JSON
	// marshal and parse per frame in each direction.
	MsgAckBin MsgType = 12
	// MsgSubmitBatchColumnar is the submission frame: a (session, seq) tag
	// for exactly-once resubmission — a frame resent after a reconnect
	// carries its original tag, so the backend's per-session dedup window
	// acknowledges an already-applied frame without re-ingesting it — then
	// one columnar-encoded batch (trace.BatchCodec): the program ID rides
	// once in the batch header, fields are column-wise, and the backend
	// ingests the batch through a zero-copy trace.BatchView — journaling
	// those same payload bytes verbatim — without materializing Trace
	// structs. Clients may pipeline many of these frames back-to-back; the
	// server answers each in arrival order.
	MsgSubmitBatchColumnar MsgType = 13
	// MsgCoalesced is a mega-frame: its payload is a back-to-back run of
	// complete standard frames (4-byte length, type byte, payload each),
	// written with a single writev so a whole pipelining window costs one
	// syscall instead of one per frame — the syscall bound E14 measured on
	// the loopback submit path, and the round-trip bound at WAN distances. The server dispatches each inner frame exactly as if it
	// had arrived alone and answers with one MsgCoalesced carrying the
	// inner replies in order, so per-inner-frame acks (and with them the
	// exactly-once session dedup) are untouched. Nested coalesced frames
	// are rejected.
	MsgCoalesced MsgType = 14
	// MsgSubmitBatchCompressed is MsgSubmitBatchColumnar with the batch
	// bytes after the (session, seq) prefix compressed by
	// trace.CompressSlab (uvarint decompressed length + DEFLATE). The
	// compression is transport-only: the server inflates before ingest, so
	// the journaled bytes are the canonical decompressed columnar payload,
	// byte-identical to an uncompressed submission of the same batch.
	MsgSubmitBatchCompressed MsgType = 15
	// MsgRedirect answers a submission or a read for a program this hive
	// does not own under the current placement map: the payload
	// (RedirectPayload) names the owning node and carries the full
	// placement, so the client re-dials the owner and asks again —
	// resubmitting its parked sealed frames verbatim, where the (session,
	// seq) dedup guarantees no acknowledged trace is ever double-applied
	// across the move.
	MsgRedirect MsgType = 16
	// MsgBusy answers a submission the server declines to ingest right now
	// under overload: the payload (BusyPayload) carries a retry-after hint
	// and the shed/limit reason. The frame was NOT applied — the client
	// must resubmit it verbatim after backing off, so exactly-once
	// semantics are untouched: a busy frame is simply a frame that has not
	// been acknowledged yet. Busy replies are emitted by the per-connection
	// worker in the reply slot the frame's ack would have occupied, so
	// pipelined clients keep matching acks to frames by order.
	MsgBusy MsgType = 17
)

// ProtocolVersion is the one protocol generation this package speaks. The
// hello carries it in both directions, and neither side talks to a peer that
// names another.
const ProtocolVersion = 1

// MaxFrameSize bounds a frame — its type byte and payload — on every
// connection; a larger size field is rejected as hostile before anything is
// allocated for it.
const MaxFrameSize = 16 << 20

// ErrFrame is wrapped by framing failures.
var ErrFrame = errors.New("wire: bad frame")

// checkFrameSize is the frame-size rule, applied to a frame's size field (the
// type byte plus the payload) by whoever reads one off a connection or is
// about to write one.
func checkFrameSize(size uint64) error {
	if size == 0 || size > MaxFrameSize {
		return fmt.Errorf("%w: size %d", ErrFrame, size)
	}
	return nil
}

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if err := checkFrameSize(uint64(len(payload)) + 1); err != nil {
		return err
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// parseFrameHeader validates a 5-byte frame header — a connection's or an
// inner frame's of a mega-frame — and returns the type and payload size.
func parseFrameHeader(hdr []byte) (MsgType, int, error) {
	size := binary.BigEndian.Uint32(hdr[:4])
	if err := checkFrameSize(uint64(size)); err != nil {
		return 0, 0, err
	}
	return MsgType(hdr[4]), int(size - 1), nil
}

// readFrameHeader reads and validates one frame header.
func readFrameHeader(r io.Reader) (MsgType, int, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	return parseFrameHeader(hdr[:])
}

// ReadFrame reads one frame.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	t, size, err := readFrameHeader(r)
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return t, payload, nil
}

// --- control-message payloads (JSON) ---

// HelloPayload names the protocol version the client speaks.
type HelloPayload struct {
	Version int `json:"version"`
}

// HelloAckPayload accepts a hello: the server's protocol version (the
// client's own, or the hello was refused) and, when the server is a member of
// a sharded fleet, its current placement map.
type HelloAckPayload struct {
	Version   int               `json:"version"`
	Placement *PlacementPayload `json:"placement,omitempty"`
}

// PlacementPayload is the wire form of a ring.Map: the versioned node set
// plus the hash parameters, enough for any receiver to rebuild the exact
// same circle (ownership is a pure function of these fields and the key).
type PlacementPayload struct {
	Version uint64   `json:"version"`
	Nodes   []string `json:"nodes"`
	VNodes  int      `json:"vnodes"`
	Seed    uint64   `json:"seed"`
}

// RedirectPayload is the body of MsgRedirect: the program the frame was
// for, the node that owns it under the server's placement, and that
// placement in full so one redirect is enough to re-route every program.
type RedirectPayload struct {
	ProgramID string            `json:"programId"`
	Owner     string            `json:"owner"`
	Placement *PlacementPayload `json:"placement,omitempty"`
}

// RedirectError is the typed client-side form of MsgRedirect: the
// submission was not applied, or the read not answered, because this server
// does not own the program.
// Callers (the Router, or operators reading retry-exhausted errors) use
// Owner and Version to distinguish "owner moved" from "owner down".
type RedirectError struct {
	ProgramID string
	Owner     string
	Version   uint64
	Placement *PlacementPayload
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("wire: program %s is owned by %s (placement v%d)", e.ProgramID, e.Owner, e.Version)
}

// BusyPayload is the body of MsgBusy: how long the client should wait
// before resubmitting the frame, and why it was declined (rate limit,
// queue pressure, or a hive shed reason — diagnostics, not protocol).
type BusyPayload struct {
	RetryAfterMs int64  `json:"retryAfterMs"`
	Reason       string `json:"reason,omitempty"`
}

// BusyError is the typed client-side form of MsgBusy: the submission was
// not applied; the server asks the client to back off and resubmit. The
// client's retry machinery honors RetryAfter as a floor under its
// jittered exponential backoff; the Router treats it as "owner alive but
// shedding" and does NOT re-poll seeds for a new placement.
type BusyError struct {
	RetryAfter time.Duration
	Reason     string
}

func (e *BusyError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("wire: server busy (retry after %v)", e.RetryAfter)
	}
	return fmt.Sprintf("wire: server busy (retry after %v): %s", e.RetryAfter, e.Reason)
}

// GetFixesPayload requests fixes.
type GetFixesPayload struct {
	ProgramID string `json:"programId"`
	Version   int    `json:"version"`
}

// FixesPayload returns fixes as raw JSON (fix.Fix marshals itself).
type FixesPayload struct {
	Fixes   []json.RawMessage `json:"fixes"`
	Version int               `json:"version"`
	Error   string            `json:"error,omitempty"`
}

// GetGuidancePayload requests steering test cases.
type GetGuidancePayload struct {
	ProgramID string `json:"programId"`
	Max       int    `json:"max"`
}

// GuidancePayload returns test cases.
type GuidancePayload struct {
	Cases []json.RawMessage `json:"cases"`
	Error string            `json:"error,omitempty"`
}

// ErrorPayload reports a server-side failure for unknown requests.
type ErrorPayload struct {
	Error string `json:"error"`
}

// encodeAckBin packs a binary ack.
func encodeAckBin(accepted int, dup bool, errMsg string) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+1+len(errMsg))
	buf = binary.AppendUvarint(buf, uint64(accepted))
	var flags byte
	if dup {
		flags |= 1
	}
	buf = append(buf, flags)
	return append(buf, errMsg...)
}

// decodeAckBin unpacks a binary ack.
func decodeAckBin(buf []byte) (accepted int, dup bool, errMsg string, err error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || len(buf) < sz+1 {
		return 0, false, "", fmt.Errorf("%w: binary ack", ErrFrame)
	}
	return int(n), buf[sz]&1 == 1, string(buf[sz+1:]), nil
}

// appendSeqPrefix writes the (session, seq) exactly-once tag that opens
// both submission frames.
func appendSeqPrefix(buf []byte, session string, seq uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(session)))
	buf = append(buf, session...)
	return binary.AppendUvarint(buf, seq)
}

// decodeSeqPrefix splits a sequenced payload into its tag and the rest.
func decodeSeqPrefix(buf []byte) (session string, seq uint64, rest []byte, err error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf[sz:])) {
		return "", 0, nil, fmt.Errorf("%w: session id", ErrFrame)
	}
	session = string(buf[sz : sz+int(n)])
	buf = buf[sz+int(n):]
	seq, sz = binary.Uvarint(buf)
	if sz <= 0 {
		return "", 0, nil, fmt.Errorf("%w: sequence number", ErrFrame)
	}
	return session, seq, buf[sz:], nil
}
