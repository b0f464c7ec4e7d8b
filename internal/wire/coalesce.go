package wire

import (
	"encoding/binary"
	"fmt"
	"net"
)

// A MsgCoalesced payload is a concatenation of complete standard frames,
// each its own 4-byte length + type byte + payload. The splitter below is
// the single parser for that layout — both the server (inner requests) and
// the client (inner acks) iterate with it, and FuzzCoalescedFrame hammers
// it with truncated runs and lying length prefixes. It allocates nothing:
// inner payloads are sub-slices of the mega-frame, valid only during the
// callback.

// forEachInner walks the inner frames of a coalesced payload in order,
// invoking fn for each. It stops on the first malformed inner header or on
// a callback error.
func forEachInner(payload []byte, fn func(t MsgType, inner []byte) error) error {
	for off := 0; off < len(payload); {
		if len(payload)-off < 5 {
			return fmt.Errorf("%w: truncated inner frame header at %d", ErrFrame, off)
		}
		t, size, err := parseFrameHeader(payload[off : off+5])
		if err != nil {
			return fmt.Errorf("inner frame at %d: %w", off, err)
		}
		end := off + 5 + size
		if end > len(payload) {
			return fmt.Errorf("%w: inner frame at %d overruns payload (%d > %d)", ErrFrame, off, end, len(payload))
		}
		if err := fn(t, payload[off+5:end]); err != nil {
			return err
		}
		off = end
	}
	return nil
}

// appendInnerHeader appends one inner frame header (length + type) for a
// payload of the given size.
func appendInnerHeader(dst []byte, t MsgType, payloadLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(payloadLen+1))
	return append(dst, byte(t))
}

// coalescedWireSize returns the on-wire size of frames [start, end) once
// coalesced: each inner frame costs its payload plus a 5-byte header.
func coalescedWireSize(payloads [][]byte, start, end int) int {
	total := 0
	for i := start; i < end; i++ {
		total += 5 + len(payloads[i])
	}
	return total
}

// writeCoalesced writes frames [start, end) of (msgs, payloads) as one
// MsgCoalesced mega-frame with a single writev: the outer header, every
// inner header, and every payload go to the kernel as one vector, so the
// whole group costs one syscall and one packetizable burst. hdrScratch and
// bufScratch are reusable backing arrays (may be nil); the grown versions
// are returned for the next call.
func writeCoalesced(conn net.Conn, msgs []MsgType, payloads [][]byte, start, end int, hdrScratch []byte, bufScratch net.Buffers) ([]byte, net.Buffers, error) {
	inner := coalescedWireSize(payloads, start, end)
	// Headers first, into one contiguous scratch: appending as we build the
	// vector would invalidate earlier sub-slices on growth.
	hdrs := hdrScratch[:0]
	hdrs = binary.BigEndian.AppendUint32(hdrs, uint32(inner+1))
	hdrs = append(hdrs, byte(MsgCoalesced))
	for i := start; i < end; i++ {
		hdrs = appendInnerHeader(hdrs, msgs[i], len(payloads[i]))
	}
	bufs := bufScratch[:0]
	bufs = append(bufs, hdrs[:5])
	for i := start; i < end; i++ {
		h := hdrs[5+(i-start)*5:]
		bufs = append(bufs, h[:5], payloads[i])
	}
	// WriteTo consumes bufs in place; hand it a copy of the slice header so
	// the scratch stays reusable.
	vec := bufs
	_, err := vec.WriteTo(conn)
	return hdrs, bufs, err
}
