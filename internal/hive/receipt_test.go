package hive

import (
	"testing"

	"repro/internal/journal"
	"repro/internal/proof"
	"repro/internal/trace"
)

// TestAppliesTakeOnlyTheirOwnReceipt: each apply of a journaled op runs only
// under a receipt minted for an op of its own kind. The zero Receipt, which
// any package can write, and a receipt for an op of another kind both panic
// before anything is applied; the receipt of its own kind is taken.
func TestAppliesTakeOnlyTheirOwnReceipt(t *testing.T) {
	p := buildTwoDead(t)
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	st, err := h.state(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	view := viewOf(t, p.ID, []*trace.Trace{captureIn(t, p, trace.CaptureFull, []int64{7})})
	defer view.Release()
	locked := func(apply func()) {
		st.mu.Lock()
		defer st.mu.Unlock()
		apply()
	}
	applies := []struct {
		name  string
		takes []journal.Kind
		apply func(journal.Receipt)
	}{
		{"batch", []journal.Kind{journal.OpBatch, journal.OpBatchColumnar}, func(r journal.Receipt) { h.applyBatchView(st, view, r) }},
		{"synthesis", []journal.Kind{journal.OpSynthesis}, func(r journal.Receipt) { locked(func() { st.applySynthesis(r, nil) }) }},
		{"certificate", []journal.Kind{journal.OpCert}, func(r journal.Receipt) { st.applyCert(r) }},
		{"proof", []journal.Kind{journal.OpProof}, func(r journal.Receipt) { locked(func() { st.applyProof(r, &proof.Proof{}) }) }},
	}
	kinds := []journal.Kind{journal.OpBatch, journal.OpSynthesis, journal.OpProof, journal.OpCert, journal.OpBatchColumnar}
	var memory *journal.Store // an in-memory hive's journal: records nothing, mints receipts
	for _, a := range applies {
		if !panics(func() { a.apply(journal.Receipt{}) }) {
			t.Errorf("%s apply took the zero Receipt", a.name)
		}
		for _, k := range kinds {
			r, err := memory.Commit(p.ID, &journal.Op{Kind: k})
			if err != nil {
				t.Fatal(err)
			}
			own := false
			for _, taken := range a.takes {
				own = own || k == taken
			}
			if panicked := panics(func() { a.apply(r) }); panicked == own {
				t.Errorf("%s apply handed the receipt of a kind %d op: panicked %v, want %v", a.name, k, panicked, !own)
			}
		}
	}
}

// panics reports whether f panics.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}
