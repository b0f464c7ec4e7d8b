package wire

import (
	"encoding/binary"
	"fmt"
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
