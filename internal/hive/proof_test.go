package hive

import (
	"errors"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/pod"
	"repro/internal/proof"
)

// TestRefusedProofPublishesNothing: a proof is published only once its
// OpProof is journaled, through the read-only breaker like every other
// mutation. With the breaker open, Prove returns the refusal, PublishedProofs
// stays empty and the disk sees no operation at all. The proof used to be
// written past the breaker, returned with a nil error and served, although a
// restart would not have had it. The evidence the attempt merged into the
// tree is applied and unjournaled, and DurabilityError says so. Once a
// checkpoint closes the breaker, the proof publishes and a restart recovers
// it.
func TestRefusedProofPublishesNothing(t *testing.T) {
	ffs := faultfs.Wrap(nil, faultfs.Plan{})
	dir := t.TempDir()
	h, store, p := twoDeadHive(t, dir, ffs)

	// Refused certificates open the breaker, as refused batches do.
	ffs.ForceENOSPC(true)
	for i := 0; i < readOnlyAppendThreshold && !h.ProgramReadOnly(p.ID); i++ {
		if _, err := h.Guidance(p.ID, 4); err != nil {
			t.Fatal(err)
		}
	}
	if !h.ProgramReadOnly(p.ID) {
		t.Fatal("breaker still closed on a full disk")
	}

	before := ffs.Stats().Ops
	pr, err := h.Prove(p.ID, proof.PropNoCrash)
	if !errors.Is(err, pod.ErrReadOnly) || pr != nil {
		t.Fatalf("Prove with the breaker open = %+v, %v; want no proof and pod.ErrReadOnly", pr, err)
	}
	if n := ffs.Stats().Ops - before; n != 0 {
		t.Fatalf("the refused proof cost %d disk operations, want none", n)
	}
	if pubs, err := h.PublishedProofs(p.ID); err != nil || len(pubs) != 0 {
		t.Fatalf("published after a refused OpProof: %d proofs, err %v", len(pubs), err)
	}
	if h.DurabilityError() == nil {
		t.Fatal("a refused proof left its evidence merges applied and unjournaled, but DurabilityError is nil")
	}

	ffs.ForceENOSPC(false)
	if err := h.CheckpointProgram(p.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Prove(p.ID, proof.PropNoCrash); err != nil {
		t.Fatal(err)
	}
	if pubs, _ := h.PublishedProofs(p.ID); len(pubs) != 1 {
		t.Fatalf("%d proofs published on a healthy disk, want 1", len(pubs))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	h2 := New("fleet")
	if err := h2.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	store2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if err := h2.Recover(store2); err != nil {
		t.Fatal(err)
	}
	if pubs, _ := h2.PublishedProofs(p.ID); len(pubs) != 1 {
		t.Fatalf("restart recovered %d proofs, want the 1 published", len(pubs))
	}
}
