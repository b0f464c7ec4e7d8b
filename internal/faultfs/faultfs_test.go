package faultfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"repro/internal/journal"
)

// TestDeterministicSchedule: the same seed over the same operation sequence
// injects the same faults — the property every shrunk reproduction relies on.
func TestDeterministicSchedule(t *testing.T) {
	run := func() Stats {
		dir := t.TempDir()
		ffs := Wrap(nil, Plan{Seed: 42, TornWriteRate: 0.3, SyncErrRate: 0.3, WriteErrRate: 0.2})
		for i := 0; i < 50; i++ {
			f, err := ffs.OpenFile(filepath.Join(dir, fmt.Sprintf("f%d", i)), os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				continue
			}
			_, _ = f.Write([]byte("payload-payload-payload"))
			_ = f.Sync()
			_ = f.Close()
		}
		return ffs.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different schedules: %+v vs %+v", a, b)
	}
	if a.TornWrites == 0 || a.SyncErrs == 0 || a.WriteErrs == 0 {
		t.Fatalf("plan injected nothing: %+v", a)
	}
}

// TestCrashLatch: once the crash point fires every later operation fails.
func TestCrashLatch(t *testing.T) {
	dir := t.TempDir()
	ffs := Wrap(nil, Plan{Seed: 1, CrashAfterOps: 3})
	path := filepath.Join(dir, "f")
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644) // op 1
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Write([]byte("ok")); err != nil { // op 2
		t.Fatalf("write before crash point: %v", err)
	}
	if _, err := f.Write([]byte("boom")); !errors.Is(err, ErrCrashed) { // op 3 latches
		t.Fatalf("write at crash point: got %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash: got %v, want ErrCrashed", err)
	}
	if _, err := ffs.OpenFile(path, os.O_RDONLY, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open after crash: want ErrCrashed")
	}
	if !ffs.Crashed() {
		t.Fatal("Crashed() false after latch")
	}
}

// TestENOSPCSurfacesCleanly: a clean write failure reports ENOSPC and lands
// no bytes.
func TestENOSPCSurfacesCleanly(t *testing.T) {
	dir := t.TempDir()
	ffs := Wrap(nil, Plan{Seed: 7, WriteErrRate: 1.0})
	f, err := ffs.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Write([]byte("data")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("got %v, want ENOSPC", err)
	}
	_ = f.Close()
	data, _ := os.ReadFile(filepath.Join(dir, "f"))
	if len(data) != 0 {
		t.Fatalf("clean write failure leaked %d bytes", len(data))
	}
}

// checkpointPast closes the program's write breaker the one way there is, a
// checkpoint that lands, as the hive's checkpoint timer would, so a storm
// keeps appending after the breaker opens. It first hands keep every op of
// the journal generation the checkpoint rotates away, read back through
// ExportChain. The injected faults hit the checkpoint's own writes too, so it
// retries until one lands. The caller holds off every append meanwhile.
func checkpointPast(st *journal.Store, program string, keep func(*journal.Op)) error {
	ce, err := st.ExportChain(program)
	if err != nil {
		return err
	}
	if ce != nil { // nil: no record ever landed
		if _, err := ce.Replay(program, func(r journal.Receipt) error { keep(r.Op()); return nil }); err != nil {
			return err
		}
	}
	for try := 0; try < 100; try++ {
		if err = st.Checkpoint(&journal.ProgramSnapshot{ProgramID: program}, 0); err == nil {
			return nil
		}
	}
	return fmt.Errorf("no checkpoint landed in 100 tries: %w", err)
}

// TestJournalSurvivesFaultStorm: a journal hammered through the injector
// never lies — every append it acked is replayed intact, from the generation
// a checkpoint rotated away once the write breaker opened or after a clean
// re-open, and every append it failed is absent or rolled back. This is the
// core faultfs/journal contract the matrix tests build on.
func TestJournalSurvivesFaultStorm(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			ffs := Wrap(nil, Plan{
				Seed:           seed,
				TornWriteRate:  0.10,
				ShortWriteRate: 0.05,
				WriteErrRate:   0.05,
				SyncErrRate:    0.10,
			})
			st, err := journal.Open(dir, journal.Options{Fsync: true, FS: ffs})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			const program = "prog-storm"
			var acked []uint64
			got := map[uint64]bool{}
			keep := func(op *journal.Op) { got[op.Seq] = true }
			for seq := uint64(1); seq <= 200; seq++ {
				op := &journal.Op{Kind: journal.OpBatchColumnar, Session: "s", Seq: seq, Raw: []byte{byte(seq)}}
				switch err := st.Append(program, op); {
				case err == nil:
					acked = append(acked, seq)
				case errors.Is(err, journal.ErrReadOnly):
					if err := checkpointPast(st, program, keep); err != nil {
						t.Fatal(err)
					}
				}
			}
			_ = st.Close()

			// Clean re-open on the real filesystem: the post-crash boot.
			st2, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatalf("re-open: %v", err)
			}
			defer st2.Close()
			if _, err := st2.Replay(program, func(r journal.Receipt) error {
				keep(r.Op())
				return nil
			}); err != nil {
				t.Fatalf("replay: %v", err)
			}
			for _, seq := range acked {
				if !got[seq] {
					t.Fatalf("seed %d: acked seq %d lost (acked %d, replayed %d)", seed, seq, len(acked), len(got))
				}
			}
		})
	}
}

// TestJournalSurvivesConcurrentFaultStorm is the storm on the append path as
// the fleet runs it: sixteen appenders lead each other's groups on one
// program's journal, so a torn, short or failed write, or a failed sync,
// fails a whole group. What
// replays after a clean re-open must be exactly what was acknowledged: an
// append missing from it was acked out of a group that failed, an extra one
// was refused out of a group that landed or was not rolled back. Appends
// keep landing after every rollback, and more appends failed than faults
// fired, so groups of several did fail together. When the write breaker
// opens, the appender that met it checkpoints under a gate the others share,
// as the hive's timer would, after reading back the generation that goes.
func TestJournalSurvivesConcurrentFaultStorm(t *testing.T) {
	const (
		program   = "prog-storm"
		appenders = 16
		perWorker = 40
	)
	type key struct {
		w   int
		seq uint64
	}
	var failedAppends, faults uint64
	for seed := int64(1); seed <= 4; seed++ {
		dir := t.TempDir()
		ffs := Wrap(nil, Plan{
			Seed:           seed,
			TornWriteRate:  0.10,
			ShortWriteRate: 0.05,
			WriteErrRate:   0.05,
			SyncErrRate:    0.10,
		})
		st, err := journal.Open(dir, journal.Options{Fsync: true, MaxBatch: 8, FS: ffs})
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		var (
			gate              sync.RWMutex // appends share it, a checkpoint holds it alone
			mu                sync.Mutex
			acked             = map[key]bool{}
			failed            = map[key]bool{}
			faulted           int // failed appends less the breaker's refusals
			replayed          = map[key]bool{}
			ackedAfterFailure int
			wg                sync.WaitGroup
		)
		replay := func(op *journal.Op) {
			k := key{int(op.Raw[0]), op.Seq}
			if replayed[k] {
				t.Errorf("seed %d: %v replayed twice", seed, k)
			}
			replayed[k] = true
		}
		for w := 0; w < appenders; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sawFailure := false
				for seq := uint64(1); seq <= perWorker; seq++ {
					op := &journal.Op{Kind: journal.OpBatchColumnar, Session: fmt.Sprintf("w%d", w), Seq: seq, Raw: []byte{byte(w), byte(seq)}}
					gate.RLock()
					err := st.Append(program, op)
					gate.RUnlock()
					mu.Lock()
					switch {
					case err != nil:
						failed[key{w, seq}] = true
						sawFailure = true
						if !errors.Is(err, journal.ErrReadOnly) {
							faulted++
						}
					case sawFailure:
						ackedAfterFailure++
						fallthrough
					default:
						acked[key{w, seq}] = true
					}
					mu.Unlock()
					if errors.Is(err, journal.ErrReadOnly) {
						gate.Lock()
						if _, open := st.Breaker(program); open {
							mu.Lock()
							if err := checkpointPast(st, program, replay); err != nil {
								t.Errorf("seed %d: %v", seed, err)
							}
							mu.Unlock()
						}
						gate.Unlock()
					}
				}
			}(w)
		}
		wg.Wait()
		_ = st.Close()

		st2, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatalf("seed %d: re-open: %v", seed, err)
		}
		if _, err := st2.Replay(program, func(r journal.Receipt) error {
			replay(r.Op())
			return nil
		}); err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		_ = st2.Close()
		for k := range acked {
			if !replayed[k] {
				t.Errorf("seed %d: acked %v lost (acked %d, replayed %d)", seed, k, len(acked), len(replayed))
			}
		}
		for k := range failed {
			if replayed[k] {
				t.Errorf("seed %d: refused %v replays", seed, k)
			}
		}
		fs := ffs.Stats()
		if fs.TornWrites == 0 || fs.ShortWrites == 0 || fs.WriteErrs == 0 || fs.SyncErrs == 0 {
			t.Errorf("seed %d: a fault kind never fired: %+v", seed, fs)
		}
		if len(failed) == 0 || ackedAfterFailure == 0 {
			t.Errorf("seed %d: %d failed appends, %d acked after a failure: nothing landed after a rollback", seed, len(failed), ackedAfterFailure)
		}
		failedAppends += uint64(faulted)
		faults += fs.TornWrites + fs.ShortWrites + fs.WriteErrs + fs.SyncErrs
	}
	if failedAppends <= faults {
		t.Errorf("%d appends failed on %d injected faults: no group of several failed together", failedAppends, faults)
	}
}
