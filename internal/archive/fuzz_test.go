package archive

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/codec/codectest"
)

// FuzzArchiveSegment feeds torn, truncated, bit-flipped, and arbitrary
// garbage bytes through the segment decoder: it must never panic, never
// accept a frame whose CRC does not cover exactly the bytes presented, and
// — round-tripping whatever it does accept — never lose or alter an acked
// payload. Each input is also decoded as a frame's body, sealed with the
// magic and its own CRC, so that fuzzed and hostile fields (every
// codectest.HostileUvarints value in each length) get past the checksum to
// the field reads.
func FuzzArchiveSegment(f *testing.F) {
	seeds := []*Segment{
		{Kind: KindFull, ProgramID: "prog-a", Gen: 1, Payload: []byte("base snapshot bytes")},
		{Kind: KindDelta, ProgramID: "prog-b", Gen: 9, Payload: []byte{}},
		{Kind: KindWALChunk, ProgramID: "p", Gen: 3, Part: 2, Offset: 4096, Payload: bytes.Repeat([]byte{0xAB}, 128)},
		{Kind: KindManifest, ProgramID: "prog-c", Gen: 0, Payload: []byte(`{"programId":"prog-c"}`)},
	}
	for _, s := range seeds {
		f.Add(EncodeSegment(s))
	}
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	codectest.Fuzz(f, func(body []byte) error { _, err := DecodeSegment(sealed(body)); return err },
		[]byte{segVersion, byte(KindFull)},             // the program ID's length
		[]byte{segVersion, byte(KindFull), 0, 0, 0, 0}, // the payload's length
	)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frame := range [][]byte{data, sealed(data)} {
			seg, err := DecodeSegment(frame)
			if err != nil {
				continue // rejected: fine, as long as it never panics
			}
			// Accepted frames must survive a re-encode/re-decode round trip
			// with every field intact: the decoder can never have dropped or
			// reinterpreted payload bytes.
			back, err := DecodeSegment(EncodeSegment(seg))
			if err != nil || !reflect.DeepEqual(seg, back) {
				t.Fatalf("accepted frame does not round-trip (%v): kind=%d prog=%q gen=%d", err, seg.Kind, seg.ProgramID, seg.Gen)
			}
		}
	})
}

// sealed frames body as EncodeSegment does: the magic before it, its CRC
// after.
func sealed(body []byte) []byte {
	frame := append([]byte(segMagic), body...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
}
