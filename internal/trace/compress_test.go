package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/codec/codectest"
	"repro/internal/race"
)

// compressCorpus builds a realistic columnar batch payload (the thing the
// wire compresses) plus some synthetic shapes.
func compressCorpus(t *testing.T) [][]byte {
	t.Helper()
	enc, err := EncodeBatch("prog-alloc", allocBatch())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	random := make([]byte, 8192)
	for i := range random {
		random[i] = byte(rng.Intn(256))
	}
	return [][]byte{
		enc,
		{},
		[]byte("x"),
		bytes.Repeat([]byte("abcdef"), 4000),
		random,
	}
}

func TestCompressSlabRoundTrip(t *testing.T) {
	for i, raw := range compressCorpus(t) {
		comp := CompressSlab(nil, raw)
		got, err := DecompressSlab(comp, 1<<20)
		if err != nil {
			t.Fatalf("case %d: decompress: %v", i, err)
		}
		if !bytes.Equal(*got, raw) {
			t.Fatalf("case %d: round trip differs (%d bytes in, %d out)", i, len(raw), len(*got))
		}
		ReleaseSlab(got)
	}
}

// hotPathBatch builds a batch with production-shaped redundancy: one
// program has a handful of hot paths, so branch sequences, syscall
// patterns, and outcomes repeat heavily across traces — the redundancy
// slab compression exists to exploit (allocBatch, by contrast, is
// adversarially random).
func hotPathBatch(n int) []*Trace {
	rng := rand.New(rand.NewSource(7))
	paths := make([][]BranchEvent, 4)
	for p := range paths {
		for i := 0; i < 12+4*p; i++ {
			paths[p] = append(paths[p], BranchEvent{ID: int32((p*31 + i*7) % 200), Taken: i%3 != 0})
		}
	}
	batch := make([]*Trace, n)
	for i := range batch {
		path := paths[rng.Intn(len(paths))]
		tr := &Trace{
			ProgramID: "prog-hot",
			PodID:     "pod-hot",
			Seq:       uint64(i),
			Mode:      CaptureFull,
			Steps:     int64(100 + len(path)),
			Privacy:   PrivacyHashed,
			Branches:  append([]BranchEvent(nil), path...),
			Input:     []int64{int64(rng.Intn(160))},
		}
		tr.Syscalls = []SyscallEvent{{TID: 0, Sysno: 1, Ret: 0}, {TID: 0, Sysno: 3, Ret: int64(rng.Intn(4))}}
		batch[i] = tr
	}
	return batch
}

// TestCompressSlabRatio pins the reason the feature exists: a
// production-shaped columnar batch (hot paths repeating across traces)
// must shrink substantially under BestSpeed DEFLATE.
func TestCompressSlabRatio(t *testing.T) {
	enc, err := EncodeBatch("prog-hot", hotPathBatch(256))
	if err != nil {
		t.Fatal(err)
	}
	comp := CompressSlab(nil, enc)
	if len(comp)*3 > len(enc) {
		t.Fatalf("columnar batch compressed %d -> %d bytes; want at least 3x", len(enc), len(comp))
	}
}

func TestDecompressSlabBombGuard(t *testing.T) {
	raw := bytes.Repeat([]byte{0}, 4096)
	comp := CompressSlab(nil, raw)
	// Claimed length over the limit is rejected before any inflation.
	if _, err := DecompressSlab(comp, len(raw)-1); !errors.Is(err, ErrCodec) {
		t.Fatalf("over-limit claim not rejected: %v", err)
	}
	// A length prefix lying low: the stream inflates past the claim.
	lying := CompressSlab(nil, raw)
	honest := CompressSlab(nil, raw[:1])
	// Graft the 1-byte claim onto the 4096-byte stream.
	graft := append(append([]byte{}, honest[:1]...), lying[1:]...)
	if _, err := DecompressSlab(graft, 1<<20); !errors.Is(err, ErrCodec) {
		t.Fatalf("stream longer than claim not rejected: %v", err)
	}
	// Truncated stream: shorter than claimed.
	if _, err := DecompressSlab(comp[:len(comp)/2], 1<<20); !errors.Is(err, ErrCodec) {
		t.Fatalf("truncated stream not rejected: %v", err)
	}
	// Empty payload: no length prefix at all.
	if _, err := DecompressSlab(nil, 1<<20); !errors.Is(err, ErrCodec) {
		t.Fatalf("empty payload not rejected: %v", err)
	}
}

// FuzzCompressedSlab hammers the decompression path with hostile inputs:
// it must never panic, never return more than maxRaw bytes, and must
// round-trip anything CompressSlab produced.
func FuzzCompressedSlab(f *testing.F) {
	raw := bytes.Repeat([]byte("seed-slab"), 100)
	f.Add(CompressSlab(nil, raw))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(CompressSlab(nil, nil))
	const maxRaw = 1 << 16
	codectest.Fuzz(f, func(payload []byte) error {
		got, err := DecompressSlab(payload, maxRaw)
		if err == nil {
			ReleaseSlab(got)
		}
		return err
	},
		nil, // the decompressed length
	)
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := DecompressSlab(payload, maxRaw)
		if err != nil {
			return
		}
		if len(*got) > maxRaw {
			t.Fatalf("decompressed %d bytes past the %d limit", len(*got), maxRaw)
		}
		// Whatever decoded must re-encode to something that decodes to the
		// same bytes (the canonical payload survives).
		again := CompressSlab(nil, *got)
		back, err := DecompressSlab(again, maxRaw)
		if err != nil {
			t.Fatalf("re-compress round trip failed: %v", err)
		}
		if !bytes.Equal(*back, *got) {
			t.Fatal("re-compress round trip changed bytes")
		}
		ReleaseSlab(back)
		ReleaseSlab(got)
	})
}

func TestAllocsCompressSlab(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	enc, err := EncodeBatch("prog-alloc", allocBatch())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the compressor pool and learn the output size.
	dst := CompressSlab(nil, enc)
	avg := testing.AllocsPerRun(100, func() {
		dst = CompressSlab(dst[:0], enc)
	})
	if avg > 2 {
		t.Fatalf("compressing a 64-trace batch costs %.1f allocs; want <= 2 (pool-churn slack over 0)", avg)
	}
}

func TestAllocsDecompressSlab(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	enc, err := EncodeBatch("prog-alloc", allocBatch())
	if err != nil {
		t.Fatal(err)
	}
	comp := CompressSlab(nil, enc)
	// Warm the decompressor and output-buffer pools.
	got, err := DecompressSlab(comp, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	ReleaseSlab(got)
	avg := testing.AllocsPerRun(100, func() {
		got, err := DecompressSlab(comp, 1<<24)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseSlab(got)
	})
	// The inflater itself allocates huffman link tables per dynamic block
	// (stdlib behavior Reset cannot avoid); the budget pins everything
	// around it — per *frame*, not per trace, and only on the WAN path
	// where the network, not the allocator, is the bottleneck.
	if avg > 40 {
		t.Fatalf("decompressing a 64-trace batch costs %.1f allocs; want <= 40", avg)
	}
}
