package journal_test

import (
	"errors"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/journal"
)

// TestCommitBreaker pins each program's write breaker over faultfs: a
// successful commit resets the count, journal.ReadOnlyThreshold-1 failed
// commits leave it closed and the next opens it, saying so in that commit's
// error; while it is open Commit returns ErrReadOnly and the disk sees no
// operation, even once the disk takes writes again; a generation whose torn
// tail cannot be cut back refuses every append unwritten and each refusal
// counts; a checkpoint that fails leaves the breaker open, and one that
// lands closes it, full or delta alike. A nil Store never refuses, and
// asking about a program the store does not know creates nothing.
func TestCommitBreaker(t *testing.T) {
	const prog = "prog-breaker"
	seq := uint64(0)
	op := func() *journal.Op {
		seq++
		return &journal.Op{Kind: journal.OpBatchColumnar, Session: "s", Seq: seq, Raw: []byte("batch")}
	}

	var none *journal.Store
	if _, err := none.Commit(prog, op()); err != nil {
		t.Fatalf("nil store refused a commit: %v", err)
	}
	if n, open := none.Breaker(prog); n != 0 || open {
		t.Fatalf("nil store breaker = %d, %v; want 0, closed", n, open)
	}

	full := func(s *journal.Store) error {
		return s.Checkpoint(&journal.ProgramSnapshot{ProgramID: prog, Tree: []byte("base")}, 0)
	}
	delta := func(s *journal.Store) error {
		return s.CheckpointDelta(&journal.ProgramSnapshot{ProgramID: prog, TreeDelta: []byte("delta")})
	}
	for _, tc := range []struct {
		name string
		torn bool // the rollback of the first failed write fails too
		ckpt func(*journal.Store) error
	}{
		{"full disk/Checkpoint", false, full},
		{"full disk/CheckpointDelta", false, delta},
		{"torn tail/Checkpoint", true, full},
		{"torn tail/CheckpointDelta", true, delta},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var plan faultfs.Plan
			if tc.torn {
				plan.TruncateErrRate = 1
			}
			ffs := faultfs.Wrap(nil, plan)
			s, err := journal.Open(dir, journal.Options{FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := full(s); err != nil {
				t.Fatal(err)
			}
			breaker := func(wantFails int, wantOpen bool) {
				t.Helper()
				if n, open := s.Breaker(prog); n != wantFails || open != wantOpen {
					t.Fatalf("breaker = %d failures, open %v; want %d, open %v", n, open, wantFails, wantOpen)
				}
			}
			commit := func() error {
				t.Helper()
				_, err := s.Commit(prog, op())
				return err
			}
			if err := commit(); err != nil {
				t.Fatal(err)
			}
			if n, open := s.Breaker("prog-unknown"); n != 0 || open {
				t.Fatalf("unknown program's breaker = %d, %v", n, open)
			}
			if got := s.Programs(); len(got) != 1 || got[0] != prog {
				t.Fatalf("programs after asking about an unknown one: %v", got)
			}

			ffs.ForceENOSPC(true)
			if !tc.torn {
				if err := commit(); err == nil {
					t.Fatal("commit succeeded on a full disk")
				}
				breaker(1, false)
				ffs.ForceENOSPC(false)
				if err := commit(); err != nil {
					t.Fatal(err)
				}
				breaker(0, false)
				ffs.ForceENOSPC(true)
			}
			for i := 1; i <= journal.ReadOnlyThreshold; i++ {
				if tc.torn && i == 2 {
					// The disk is healthy again; the torn generation alone
					// refuses from here on, and touches no file to do it.
					ffs.ForceENOSPC(false)
				}
				before := ffs.Stats().Ops
				err := commit()
				switch {
				case err == nil:
					t.Fatalf("failing commit %d succeeded", i)
				case errors.Is(err, journal.ErrReadOnly):
					t.Fatalf("commit %d refused read-only before the breaker opened: %v", i, err)
				case errors.Is(err, journal.ErrBreakerOpened) != (i == journal.ReadOnlyThreshold):
					t.Fatalf("commit %d: %v; want ErrBreakerOpened on commit %d alone", i, err, journal.ReadOnlyThreshold)
				case tc.torn && i > 1 && ffs.Stats().Ops != before:
					t.Fatalf("commit %d to a torn generation touched the disk", i)
				}
				breaker(i, i == journal.ReadOnlyThreshold)
			}

			ffs.ForceENOSPC(true)
			if err := tc.ckpt(s); err == nil {
				t.Fatal("checkpoint landed on a full disk")
			}
			breaker(journal.ReadOnlyThreshold, true)
			ffs.ForceENOSPC(false)
			before := ffs.Stats().Ops
			if err := commit(); !errors.Is(err, journal.ErrReadOnly) {
				t.Fatalf("commit with the breaker open on a healthy disk: %v; want ErrReadOnly", err)
			}
			if n := ffs.Stats().Ops - before; n != 0 {
				t.Fatalf("a refused commit cost %d disk operations, want none", n)
			}
			breaker(journal.ReadOnlyThreshold, true)

			if err := tc.ckpt(s); err != nil {
				t.Fatal(err)
			}
			breaker(0, false)
			if err := commit(); err != nil {
				t.Fatalf("commit after the checkpoint: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			var replayed []uint64
			if _, err := s2.Replay(prog, func(r journal.Receipt) error {
				replayed = append(replayed, r.Op().Seq)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(replayed) != 1 || replayed[0] != seq {
				t.Fatalf("replayed seqs %v after the checkpoint, want [%d]: the one commit since", replayed, seq)
			}
		})
	}
}
