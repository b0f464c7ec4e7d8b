// Package codectest holds what the fuzz targets of every codec.Decoder user
// share: the hostile uvarints their corpora are seeded with, and the check
// that a decode of hostile bytes allocates no more than its input supports.
package codectest

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// HostileUvarints are the counts and lengths a hostile encoder sends: none,
// one, the largest a uvarint holds, and values near the powers of two where
// a size check that multiplies, or converts to int, wraps.
var HostileUvarints = []uint64{0, 1, math.MaxUint64, 1 << 60, 1<<63 - 1, 1<<64 - 4}

// Seeds returns, for every hostile uvarint, the encoding prefix followed by
// that uvarint and ten bytes of 0x80, which no varint read completes and no
// run of byte fields takes whole: the value lands in whichever count or
// length field follows prefix, and no seed is a whole encoding, so a decoder
// must refuse every one.
func Seeds(prefix []byte) [][]byte {
	out := make([][]byte, 0, len(HostileUvarints))
	for _, v := range HostileUvarints {
		seed := binary.AppendUvarint(append([]byte(nil), prefix...), v)
		out = append(out, append(seed, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80))
	}
	return out
}

// Fuzz seeds f with Seeds(prefix) for each prefix, after checking that
// decode refuses every one of them within its allocation bound.
func Fuzz(f *testing.F, decode func([]byte) error, prefixes ...[]byte) {
	f.Helper()
	for _, prefix := range prefixes {
		for _, seed := range Seeds(prefix) {
			if Decode(f, seed, decode) == nil {
				f.Fatalf("hostile seed %x decoded without an error", seed)
			}
			f.Add(seed)
		}
	}
}

// allocSlack is the allocation a decode may make beyond allocPerByte per
// input byte: its fixed-size values, and whatever the runtime allocates on
// the side while it runs.
const (
	allocPerByte = 64
	allocSlack   = 64 << 10
)

// Decode runs decode over data and fails tb if it allocates more than a
// small multiple of len(data): a decoder that sizes a list or a field by a
// count it has not checked against the bytes left allocates by the count. A
// panic fails the fuzz target on its own.
func Decode(tb testing.TB, data []byte, decode func([]byte) error) error {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode(data)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > allocPerByte*uint64(len(data))+allocSlack {
		tb.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
	}
	return err
}
