package hive

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/trace"
)

// sessionCliff is the size at which the dedup table once split into a live
// cache and an overflow map: one session past it, every lookup that missed
// the cache scanned all 4096 live entries for a victim under sessMu. The
// tests that were written around that bound keep crossing it.
const sessionCliff = 4096

// lookupCost returns the cheapest observed per-lookup cost of sessionFor
// with n sessions taking turns.
func lookupCost(n int) time.Duration {
	h := New("fleet")
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("sess-%d", i)
		h.sessionFor(ids[i])
	}
	best := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for _, id := range ids {
			h.sessionFor(id)
		}
		if d := time.Since(start) / time.Duration(n); d < best {
			best = d
		}
	}
	return max(best, time.Nanosecond)
}

// TestSessionTableHasNoCliff: with 2 × 4096 sessions submitting round-robin
// a lookup costs what it costs at 4096 (a map access; the two-tier table
// paid a 4096-entry scan per lookup there, ~1000×), and every one of the
// sessions is still dup-acked on resubmission — live, after checkpoint →
// reboot, and after export → import on another hive.
func TestSessionTableHasNoCliff(t *testing.T) {
	at, past := lookupCost(sessionCliff), lookupCost(2*sessionCliff)
	t.Logf("sessionFor: %v per lookup at %d sessions, %v at %d", at, sessionCliff, past, 2*sessionCliff)
	if past > 20*at {
		t.Fatalf("lookup costs %v at %d sessions against %v at %d: more than 20×", past, 2*sessionCliff, at, sessionCliff)
	}

	corpus := durableCorpus(t)
	p := corpus[1] // the clean program: cheap, deterministic applies
	dir := t.TempDir()
	h, store := newDurableHive(t, dir, corpus)
	batch := []*trace.Trace{captureSeqTrace(t, p, "pod-many", 1, []int64{7}, trace.PrivacyHashed)}
	const total, rounds = 2 * sessionCliff, 2
	for seq := uint64(1); seq <= rounds; seq++ {
		for i := 0; i < total; i++ {
			if dup, err := submitSession(t, h, fmt.Sprintf("s-%d", i), seq, p.ID, batch); err != nil || dup {
				t.Fatalf("session %d seq %d: dup=%v err=%v", i, seq, dup, err)
			}
		}
	}
	want := ingested(t, h, p.ID)
	allDupAcked := func(where string, h *Hive) {
		t.Helper()
		for seq := uint64(1); seq <= rounds; seq++ {
			for i := 0; i < total; i++ {
				if dup, err := submitSession(t, h, fmt.Sprintf("s-%d", i), seq, p.ID, batch); err != nil || !dup {
					t.Fatalf("%s: session %d seq %d not dup-acked: dup=%v err=%v", where, i, seq, dup, err)
				}
			}
		}
		if got := ingested(t, h, p.ID); got != want {
			t.Fatalf("%s: ingested %d, want %d", where, got, want)
		}
	}
	allDupAcked("live", h)

	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	h2, store2 := newDurableHive(t, dir, corpus)
	defer store2.Close()
	allDupAcked("after checkpoint and reboot", h2)

	chain, err := h2.ExportProgram(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	h3, store3 := newDurableHive(t, t.TempDir(), corpus)
	defer store3.Close()
	if err := h3.ImportProgram(chain); err != nil {
		t.Fatal(err)
	}
	allDupAcked("after export and import", h3)
}
