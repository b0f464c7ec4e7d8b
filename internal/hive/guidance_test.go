package hive

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/trace"
)

// buildTwoDead has two infeasible directions and one feasible gap:
//
//	if x > 200 { if x < 100 { dead } }
//	if x > 50 { ... }
//
// Seeded with 0 and 201 the tree is left with three frontiers: x < 100 under
// x > 200 and x <= 50 under x > 200 (both refuted), and x > 50 under
// x <= 200 (an input in 51..200 covers it, and nobody runs it here).
func buildTwoDead(t testing.TB) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("twodead", 1)
	outer, inner, mid, hi, end := b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpGT, 200, outer)
	b.Jmp(mid)
	b.Bind(outer)
	b.BrImm(0, prog.CmpLT, 100, inner)
	b.Bind(inner)
	b.Bind(mid)
	b.BrImm(0, prog.CmpGT, 50, hi)
	b.Jmp(end)
	b.Bind(hi)
	b.Const(1, 1)
	b.Bind(end)
	b.Halt()
	return b.MustBuild()
}

// journaledCerts counts the certificate records in the program's current
// journal generation.
func journaledCerts(t *testing.T, store *journal.Store, programID string) int {
	t.Helper()
	chain, err := store.ExportChain(programID)
	if err != nil {
		t.Fatal(err)
	}
	certs := 0
	if _, err := chain.Replay(programID, func(r journal.Receipt) error {
		op := r.Op()
		if op.Kind == journal.OpCert {
			certs++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return certs
}

// TestGuidanceOffCheckpointGate: a pull is a read, and only the certificates
// it mints are journaled. With the program's checkpoint gate held exclusively
// (a checkpoint in progress) a pull whose frontiers are all remembered or
// satisfiable must return, where it used to queue behind the gate for the
// length of the checkpoint; and the certificates a pull mints outside the
// gate are journaled once each, and there after checkpoint, kill and recover.
func TestGuidanceOffCheckpointGate(t *testing.T) {
	corpus := []*prog.Program{buildTwoDead(t)}
	p := corpus[0]
	dir := t.TempDir()
	h, store := newDurableHive(t, dir, corpus)
	var seq uint64
	for _, x := range []int64{0, 201} {
		seq++
		tr := captureSeqTrace(t, p, "pod-g", seq, []int64{x}, trace.PrivacyHashed)
		if dup, err := submitSession(t, h, "gen", seq, p.ID, []*trace.Trace{tr}); err != nil || dup {
			t.Fatalf("seed %d: dup=%v err=%v", x, dup, err)
		}
	}
	if err := h.CheckpointProgram(p.ID); err != nil {
		t.Fatal(err)
	}

	first, err := h.Guidance(p.ID, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || len(first[0].Input) != 1 || first[0].Input[0] <= 50 || first[0].Input[0] > 200 {
		t.Fatalf("first pull: %+v; want the one case toward x in 51..200", first)
	}
	tree, _ := h.Tree(p.ID)
	if n := tree.FrontierCount(); n != 1 {
		t.Fatalf("%d open frontiers after the first pull, want 1 (two certified)", n)
	}

	st, err := h.state(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	st.ckpt.Lock()
	pulled := make(chan []int64, 1)
	go func() {
		cases, _ := h.Guidance(p.ID, 4)
		if len(cases) == 1 {
			pulled <- cases[0].Input
		} else {
			pulled <- nil
		}
	}()
	select {
	case input := <-pulled:
		st.ckpt.Unlock()
		if len(input) != 1 || input[0] != first[0].Input[0] {
			t.Fatalf("pull under a held gate returned %v, want %v", input, first[0].Input)
		}
	case <-time.After(5 * time.Second):
		st.ckpt.Unlock()
		<-pulled
		t.Fatal("a pull with nothing to certify waited for the checkpoint gate")
	}

	if n := journaledCerts(t, store, p.ID); n != 2 {
		t.Fatalf("%d certificates journaled after two pulls, want 2", n)
	}
	if err := store.Close(); err != nil { // kill: no checkpoint after the pulls
		t.Fatal(err)
	}
	recovered, store2 := newDurableHive(t, dir, corpus)
	defer store2.Close()
	assertHivesEqual(t, h, recovered, corpus)
	if n := journaledCerts(t, store2, p.ID); n != 2 {
		t.Fatalf("%d certificates in the journal after recovery, want 2", n)
	}
	again, err := recovered.Guidance(p.ID, 4)
	if err != nil || len(again) != 1 || again[0].Input[0] != first[0].Input[0] {
		t.Fatalf("recovered hive steers to %+v (err %v), want %+v", again, err, first)
	}
	if n := journaledCerts(t, store2, p.ID); n != 2 {
		t.Fatalf("a pull on the recovered hive journaled a certificate again: %d, want 2", n)
	}
}

// buildIndependent branches once on each of n inputs, so every one of the
// 2^n paths is feasible and every frontier of its tree is satisfiable.
func buildIndependent(t testing.TB, n int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("independent", n)
	for i := 0; i < n; i++ {
		skip := b.NewLabel()
		b.Input(0, i)
		b.BrImm(0, prog.CmpGT, 100, skip)
		b.AddImm(1, 1, 1)
		b.Bind(skip)
	}
	b.Halt()
	return b.MustBuild()
}

// TestGuidanceClampsHostileMax: the max of a guidance request is a number off
// the wire. One asking for 2^20 cases on a tree with thousands of satisfiable
// frontiers is served a pod-sized multiple, not the whole open set solved
// under the generator's lock; and while such requests run back to back, a
// submit and a checkpoint of the same program complete.
func TestGuidanceClampsHostileMax(t *testing.T) {
	const clamp = 256 // guidance.maxGuidanceCases
	corpus := []*prog.Program{buildIndependent(t, 16)}
	p := corpus[0]
	h, store := newDurableHive(t, t.TempDir(), corpus)
	defer store.Close()
	rng := stats.NewRNG(11)
	capture := func(seq uint64) *trace.Trace {
		input := make([]int64, p.NumInputs)
		for i := range input {
			input[i] = rng.Int63n(200)
		}
		return captureSeqTrace(t, p, "pod-h", seq, input, trace.PrivacyHashed)
	}
	var seq uint64
	for frame := 0; frame < 12; frame++ {
		traces := make([]*trace.Trace, 128)
		for i := range traces {
			seq++
			traces[i] = capture(seq)
		}
		if dup, err := submitSession(t, h, "grow", uint64(frame+1), p.ID, traces); err != nil || dup {
			t.Fatalf("frame %d: dup=%v err=%v", frame, dup, err)
		}
	}
	tree, _ := h.Tree(p.ID)
	if open := tree.FrontierCount(); open < 4096 {
		t.Fatalf("fixture: %d open frontiers, want at least 4096", open)
	}

	cases, err := h.Guidance(p.ID, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 || len(cases) > clamp {
		t.Fatalf("Guidance(max=1<<20) returned %d cases, want 1..%d", len(cases), clamp)
	}

	stop := make(chan struct{})
	hostile := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				hostile <- nil
				return
			default:
			}
			if _, err := h.Guidance(p.ID, 1<<20); err != nil {
				hostile <- err
				return
			}
		}
	}()
	writes := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			seq++
			if dup, err := submitSession(t, h, "beside", uint64(i+1), p.ID, []*trace.Trace{capture(seq)}); err != nil || dup {
				writes <- fmt.Errorf("submit %d beside hostile pulls: dup=%v err=%v", i, dup, err)
				return
			}
			if err := h.CheckpointProgram(p.ID); err != nil {
				writes <- fmt.Errorf("checkpoint %d beside hostile pulls: %w", i, err)
				return
			}
		}
		writes <- nil
	}()
	select {
	case err := <-writes:
		close(stop)
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		close(stop)
		t.Fatal("submit and checkpoint did not complete beside hostile guidance pulls")
	}
	if err := <-hostile; err != nil {
		t.Fatal(err)
	}
}
