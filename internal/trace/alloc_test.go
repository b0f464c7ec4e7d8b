package trace

import (
	"math/rand"
	"testing"

	"repro/internal/race"
)

// Allocation-regression guards for the codec hot paths: the batch encoder
// and the view decoder run per pod drain and per hive ingest respectively,
// so a stray per-trace allocation multiplies by the fleet. Bounds are
// per-batch (64 traces) with slack for pool churn, not per-trace: the
// per-trace budget they enforce is < 0.1 allocations.

// allocBatch builds a deterministic 64-trace benign batch.
func allocBatch() []*Trace {
	rng := rand.New(rand.NewSource(99))
	batch := make([]*Trace, 64)
	for i := range batch {
		tr := randomTrace(rng, "prog-alloc")
		tr.PodID = "pod-alloc" // single-pod dictionary, the drain shape
		batch[i] = tr
	}
	return batch
}

func TestAllocsEncodeBatch(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	batch := allocBatch()
	var dst []byte
	var err error
	// Warm the encoder pool and the dst capacity.
	if dst, err = AppendBatch(dst[:0], "prog-alloc", batch); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		dst, err = AppendBatch(dst[:0], "prog-alloc", batch)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("encode of a 64-trace batch costs %.1f allocs; want <= 2 (pool-churn slack over 0)", avg)
	}
}

func TestAllocsDecodeBatchView(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	enc, err := EncodeBatch("prog-alloc", allocBatch())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the view scratch pool.
	v, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	v.Release()
	avg := testing.AllocsPerRun(200, func() {
		v, err := DecodeBatch(enc)
		if err != nil {
			t.Fatal(err)
		}
		v.Release()
	})
	// Budget: the view struct, the pod dictionary slice + its one string,
	// plus pool-churn slack — and nothing per trace.
	if avg > 6 {
		t.Fatalf("view decode of a 64-trace batch costs %.1f allocs; want <= 6", avg)
	}
}

func TestAllocsViewConsume(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	enc, err := EncodeBatch("prog-alloc", allocBatch())
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	var input []int64
	events := 0
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < v.Len(); i++ {
			events += len(v.Branches(i))
			input = v.AppendInput(input[:0], i)
			_ = v.PodID(i)
			_ = v.Outcome(i)
			_ = v.Seq(i)
		}
	})
	if avg > 0.5 {
		t.Fatalf("consuming a 64-trace view costs %.1f allocs; want 0", avg)
	}
	if events == 0 {
		t.Fatal("the batch carried no branch events to consume")
	}
}

// TestAllocsDigestInput: every captured trace is digested once, and the
// hive's brute force (GuessInput) digests every candidate, so the digest
// allocates only the string it returns.
func TestAllocsDigestInput(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	input := []int64{3, -7, 1 << 40, 9}
	sink := ""
	avg := testing.AllocsPerRun(1000, func() {
		sink = DigestInput("fleet", input)
	})
	if avg > 1 {
		t.Fatalf("DigestInput costs %.1f allocs; want 1, the string it returns", avg)
	}
	_ = sink
}
