package wire

import (
	"bytes"
	"testing"
)

// buildCoalesced concatenates inner frames into a mega-frame payload using
// the production header writer.
func buildCoalesced(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = appendInnerHeader(out, MsgSubmitBatchColumnar, len(f))
		out = append(out, f...)
	}
	return out
}

// FuzzCoalescedFrame hammers the mega-frame splitter with hostile payloads:
// truncated runs, lying length prefixes, garbage. It must never panic, and
// whenever it accepts a payload, re-encoding the inner frames it reported
// must reproduce the payload byte for byte — the splitter and the builder
// are exact inverses, so nothing is silently skipped or double-counted.
func FuzzCoalescedFrame(f *testing.F) {
	f.Add(buildCoalesced([]byte("alpha"), []byte("b"), bytes.Repeat([]byte("c"), 300)))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0})                   // zero-length inner frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}) // size past MaxFrameSize
	f.Add([]byte{0, 0, 0, 9, 1, 'x'})              // inner frame overruns payload
	f.Add(buildCoalesced([]byte("tail-cut"))[:7])  // truncated mid-header
	f.Fuzz(func(t *testing.T, payload []byte) {
		var rebuilt []byte
		err := forEachInner(payload, func(mt MsgType, inner []byte) error {
			rebuilt = appendInnerHeader(rebuilt, mt, len(inner))
			rebuilt = append(rebuilt, inner...)
			return nil
		})
		if err != nil {
			return
		}
		if !bytes.Equal(rebuilt, payload) {
			t.Fatalf("splitter accepted %d bytes but re-encoding yields %d different bytes", len(payload), len(rebuilt))
		}
	})
}
