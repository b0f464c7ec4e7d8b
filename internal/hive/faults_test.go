package hive

// Disk-fault tests (PR 10): the hive's behavior when the journal's disk
// degrades — the read-only breaker on persistent append failures, the
// unbounded session dedup table surviving displacement and restart, and a
// kill-restart matrix under injected torn writes, short writes, failed
// fsyncs, and crash points. Everything acked must recover; everything
// refused must have left no partial state behind.

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/trace"
)

// TestReadOnlyBreakerENOSPC drives the journal into persistent clean write
// failure (disk full) and pins the degradation contract: after
// journal.ReadOnlyThreshold consecutive batch-append failures the program
// flips read-only — ingest refused with pod.ErrReadOnly, guidance and dup
// detection still served — and only a durably landed checkpoint closes the
// breaker, even after the disk recovers. The flip and the close are each
// logged once.
func TestReadOnlyBreakerENOSPC(t *testing.T) {
	corpus := durableCorpus(t)
	p := corpus[0]
	dir := t.TempDir()
	ffs := faultfs.Wrap(nil, faultfs.Plan{})
	h := New("fleet")
	var warned []string
	h.Logf = func(format string, args ...any) {
		warned = append(warned, fmt.Sprintf(format, args...))
	}
	for _, pr := range corpus {
		if err := h.RegisterProgram(pr); err != nil {
			t.Fatal(err)
		}
	}
	store, err := journal.Open(dir, journal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Recover(store); err != nil {
		t.Fatal(err)
	}
	batch := []*trace.Trace{captureSeqTrace(t, p, "pod-ro", 1, []int64{5}, trace.PrivacyHashed)}
	if dup, err := submitSession(t, h, "ro", 1, p.ID, batch); err != nil || dup {
		t.Fatalf("healthy ingest: dup=%v err=%v", dup, err)
	}

	ffs.ForceENOSPC(true)
	for i := 0; i < journal.ReadOnlyThreshold; i++ {
		_, err := submitSession(t, h, "ro", uint64(2+i), p.ID, batch)
		if err == nil {
			t.Fatalf("append %d succeeded on a full disk", i)
		}
		if errors.Is(err, pod.ErrReadOnly) {
			t.Fatalf("breaker opened after only %d failures: %v", i, err)
		}
	}
	if !h.ProgramReadOnly(p.ID) || h.ReadOnlyPrograms() != 1 {
		t.Fatalf("breaker not open after %d consecutive failures", journal.ReadOnlyThreshold)
	}
	if _, err := submitSession(t, h, "ro", 9, p.ID, batch); !errors.Is(err, pod.ErrReadOnly) {
		t.Fatalf("read-only program accepted ingest path: %v", err)
	}
	found := false
	for _, w := range warned {
		if strings.Contains(w, "read-only") {
			found = true
		}
	}
	if !found {
		t.Fatalf("breaker opened without an operator note: %v", warned)
	}
	// Reads degrade gracefully: guidance and dup detection still answer.
	if _, err := h.Guidance(p.ID, 4); err != nil {
		t.Fatalf("guidance refused while read-only: %v", err)
	}
	if dup, err := submitSession(t, h, "ro", 1, p.ID, batch); err != nil || !dup {
		t.Fatalf("acked frame not dup-acked while read-only: dup=%v err=%v", dup, err)
	}

	// Disk recovers. The breaker stays open — acking ingest again before a
	// checkpoint proves durability would ack into an unproven journal.
	ffs.ForceENOSPC(false)
	if _, err := submitSession(t, h, "ro", 2, p.ID, batch); !errors.Is(err, pod.ErrReadOnly) {
		t.Fatalf("breaker closed without a checkpoint: %v", err)
	}
	if err := h.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after disk recovery: %v", err)
	}
	if h.ProgramReadOnly(p.ID) {
		t.Fatal("checkpoint landed but the breaker is still open")
	}
	if dup, err := submitSession(t, h, "ro", 2, p.ID, batch); err != nil || dup {
		t.Fatalf("ingest after breaker close: dup=%v err=%v", dup, err)
	}
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	flips, closes := 0, 0
	for _, w := range warned {
		if strings.Contains(w, "flipping read-only") {
			flips++
		}
		if strings.Contains(w, "breaker closed") {
			closes++
		}
	}
	if flips != 1 || closes != 1 {
		t.Fatalf("breaker logged %d flips and %d closes, want one each: %v", flips, closes, warned)
	}

	// Restart: exactly the acked frames (seq 1 and 2) recovered.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	h2, store2 := newDurableHive(t, dir, corpus)
	defer store2.Close()
	for _, seq := range []uint64{1, 2} {
		if dup, err := submitSession(t, h2, "ro", seq, p.ID, batch); err != nil || !dup {
			t.Fatalf("acked seq %d lost across restart: dup=%v err=%v", seq, dup, err)
		}
	}
	st2, err := h2.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Ingested != 2 {
		t.Fatalf("recovered ingested = %d, want 2 (refused frames must not replay)", st2.Ingested)
	}
}

// fillAfterNextWrite is a disk that fills up behind the next write once
// armed: that write lands, every later one fails with ENOSPC until the test
// frees space. It is how a batch gets journaled and the synthesis outcome
// the same call elects does not.
type fillAfterNextWrite struct {
	*faultfs.FS
	armed atomic.Bool
}

func (f *fillAfterNextWrite) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	inner, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &fillingFile{File: inner, fs: f}, nil
}

type fillingFile struct {
	journal.File
	fs *fillAfterNextWrite
}

func (f *fillingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.fs.armed.CompareAndSwap(true, false) {
		f.fs.ForceENOSPC(true)
	}
	return n, err
}

// TestRefusedSynthesisPublishesNothing: a fix reaches pods only after its
// OpSynthesis is in the journal. With the disk filling up between a crashing
// batch's append and the append of the fix it elects, FixesSince does not
// move — the fix used to be published at version 1, lost by a restart, and
// its ID re-issued to the next fix, which Set.Since(1) never hands out — the
// hive recovered from the directory equals the live one, and the next trace
// carrying the signature, once the disk takes writes, mints the fix: once,
// as ID 1, on the live hive and in its journal alike.
func TestRefusedSynthesisPublishesNothing(t *testing.T) {
	p, bugs, err := proggen.Generate(proggen.Spec{
		Seed: 6001, Depth: 5, NumInputs: 1, TriggerWidth: 24,
		Bugs: []proggen.BugKind{proggen.BugCrash},
	})
	if err != nil {
		t.Fatal(err)
	}
	corpus := []*prog.Program{p}
	crash := []int64{bugs[0].TriggerLo}
	dir := t.TempDir()
	ffs := &fillAfterNextWrite{FS: faultfs.Wrap(nil, faultfs.Plan{})}
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	store, err := journal.Open(dir, journal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := h.Recover(store); err != nil {
		t.Fatal(err)
	}
	submit := func(h *Hive, seq uint64, input []int64) {
		t.Helper()
		batch := []*trace.Trace{captureSeqTrace(t, p, "pod-syn", seq, input, trace.PrivacyHashed)}
		if dup, err := submitSession(t, h, "syn", seq, p.ID, batch); err != nil || dup {
			t.Fatalf("seq %d: dup=%v err=%v", seq, dup, err)
		}
	}
	fixes := func(h *Hive) int {
		t.Helper()
		got, version, err := h.FixesSince(p.ID, 0)
		if err != nil || len(got) != version {
			t.Fatalf("FixesSince: %d fixes at version %d, err %v", len(got), version, err)
		}
		for i, f := range got {
			if f.ID != i+1 {
				t.Fatalf("fix %d published with ID %d", i, f.ID)
			}
		}
		return version
	}
	submit(h, 1, []int64{bugs[0].TriggerLo - 1}) // opens the journal: its header is a write of its own

	ffs.armed.Store(true)
	submit(h, 2, crash) // the batch lands, the fix's outcome is refused
	if ffs.Stats().WriteErrs != 1 {
		t.Fatalf("%d refused writes, want the one synthesis append", ffs.Stats().WriteErrs)
	}
	if n := fixes(h); n != 0 {
		t.Fatalf("%d fixes published although the journal refused the synthesis", n)
	}
	if err := h.DurabilityError(); err != nil {
		t.Fatalf("a fix that was never published degraded durability: %v", err)
	}
	killed := t.TempDir()
	copyDir(t, dir, killed)
	recovered, store2 := newDurableHive(t, killed, corpus)
	defer store2.Close()
	assertHivesEqual(t, h, recovered, corpus)

	ffs.ForceENOSPC(false)
	submit(h, 3, crash)
	submit(h, 4, crash)
	if n := fixes(h); n != 1 {
		t.Fatalf("%d fixes after two more crashes on a healthy disk, want 1", n)
	}
	killed = t.TempDir()
	copyDir(t, dir, killed)
	recovered, store3 := newDurableHive(t, killed, corpus)
	defer store3.Close()
	assertHivesEqual(t, h, recovered, corpus)
}

// TestUnboundedSessionDedupDurable pushes the session table past 4096
// sessions (where it once split into two tiers) with journaled ingest:
// every one of them dup-acks on resubmission — before and after a
// kill-restart — and the ingest count never moves on a duplicate.
func TestUnboundedSessionDedupDurable(t *testing.T) {
	corpus := durableCorpus(t)
	p := corpus[1] // the clean program: cheap, deterministic applies
	dir := t.TempDir()
	h, store := newDurableHive(t, dir, corpus)
	batch := []*trace.Trace{captureSeqTrace(t, p, "pod-many", 1, []int64{7}, trace.PrivacyHashed)}

	total := sessionCliff + 64
	for i := 0; i < total; i++ {
		dup, err := submitSession(t, h, fmt.Sprintf("s-%d", i), 1, p.ID, batch)
		if err != nil || dup {
			t.Fatalf("session %d: dup=%v err=%v", i, dup, err)
		}
	}
	if n, _ := h.SessionCount(); n != total {
		t.Fatalf("table holds %d sessions, want %d", n, total)
	}
	before, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		dup, err := submitSession(t, h, fmt.Sprintf("s-%d", i), 1, p.ID, batch)
		if err != nil || !dup {
			t.Fatalf("resubmitted session %d not dup-acked: dup=%v err=%v", i, dup, err)
		}
	}
	after, _ := h.ProgramStats(p.ID)
	if after.Ingested != before.Ingested {
		t.Fatalf("duplicates moved ingest: %d -> %d", before.Ingested, after.Ingested)
	}

	// kill -9: no checkpoint. Recovery replays the journal, and the merged
	// session table must still cover every session.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	h2, store2 := newDurableHive(t, dir, corpus)
	defer store2.Close()
	for i := 0; i < total; i++ {
		dup, err := submitSession(t, h2, fmt.Sprintf("s-%d", i), 1, p.ID, batch)
		if err != nil || !dup {
			t.Fatalf("session %d lost across restart: dup=%v err=%v", i, dup, err)
		}
	}
	recovered, err := h2.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Ingested != before.Ingested {
		t.Fatalf("recovered ingested = %d, want %d", recovered.Ingested, before.Ingested)
	}
}

// TestKillRestartUnderFaultMatrix replays the E12-style kill-restart
// experiment under a matrix of fault plans: sessioned frames stream into a
// durable (fsynced) hive whose disk tears writes, fails fsyncs, runs out of
// space, breaks renames, and finally crashes mid-sequence. Whatever the
// injector did, a clean-disk reboot must recover, every frame acked before
// the crash must dup-ack after it, and resubmission must not move ingest.
func TestKillRestartUnderFaultMatrix(t *testing.T) {
	corpus := durableCorpus(t)
	p := corpus[0]
	// A small trace pool, captured once; the storm reuses them across
	// sessions (dedup is keyed by session/seq, not trace content).
	pool := make([][]*trace.Trace, 4)
	for i := range pool {
		pool[i] = []*trace.Trace{captureSeqTrace(t, p, "pod-m", uint64(i), []int64{int64(10 + i*31)}, trace.PrivacyHashed)}
	}
	plans := []faultfs.Plan{
		{TornWriteRate: 0.05, SyncErrRate: 0.05, CrashAfterOps: 150},
		{ShortWriteRate: 0.05, WriteErrRate: 0.05, CrashAfterOps: 200},
		{TornWriteRate: 0.03, RenameErrRate: 0.08, TruncateErrRate: 0.02, CrashAfterOps: 250},
	}
	for pi, plan := range plans {
		for seed := int64(1); seed <= 3; seed++ {
			plan := plan
			plan.Seed = seed
			t.Run(fmt.Sprintf("plan%d-seed%d", pi, seed), func(t *testing.T) {
				dir := t.TempDir()
				ffs := faultfs.Wrap(nil, plan)
				h := New("fleet")
				h.Logf = func(string, ...any) {}
				for _, pr := range corpus {
					if err := h.RegisterProgram(pr); err != nil {
						t.Fatal(err)
					}
				}
				store, err := journal.Open(dir, journal.Options{Fsync: true, FS: ffs})
				if err != nil {
					t.Fatal(err)
				}
				if err := h.Recover(store); err != nil {
					t.Fatal(err)
				}

				type frame struct {
					session string
					seq     uint64
					batch   []*trace.Trace
				}
				var acked []frame
				for i := 0; i < 120 && !ffs.Crashed(); i++ {
					f := frame{
						session: fmt.Sprintf("sess-%d", i%7),
						seq:     uint64(i/7 + 1),
						batch:   pool[i%len(pool)],
					}
					dup, err := submitSession(t, h, f.session, f.seq, p.ID, f.batch)
					if err == nil && !dup {
						acked = append(acked, f)
					}
					// Periodic checkpoints exercise the snapshot/rename fault
					// paths and close any read-only breaker the storm opened.
					if i%25 == 24 {
						_ = h.CheckpointProgram(p.ID)
					}
				}
				stats := ffs.Stats()
				if stats.TornWrites+stats.ShortWrites+stats.WriteErrs+stats.SyncErrs+
					stats.RenameErrs+stats.TruncErrs+stats.CrashedOps == 0 {
					t.Fatalf("plan injected nothing: %+v", stats)
				}
				if len(acked) == 0 {
					t.Fatal("storm acked nothing; the matrix proves nothing")
				}
				_ = store.Close() // the process is "dead"; close may itself fail

				// Reboot on a healthy disk: recovery must absorb whatever the
				// injector left behind.
				h2, store2 := newDurableHive(t, dir, corpus)
				defer store2.Close()
				before, err := h2.ProgramStats(p.ID)
				if err != nil {
					t.Fatal(err)
				}
				if before.Ingested < int64(len(acked)) {
					t.Fatalf("recovered ingested=%d < %d acked frames (acked state lost)", before.Ingested, len(acked))
				}
				for _, f := range acked {
					dup, err := submitSession(t, h2, f.session, f.seq, p.ID, f.batch)
					if err != nil {
						t.Fatalf("resubmit %s/%d: %v", f.session, f.seq, err)
					}
					if !dup {
						t.Fatalf("acked frame %s/%d re-applied after crash (exactly-once broken)", f.session, f.seq)
					}
				}
				after, _ := h2.ProgramStats(p.ID)
				if after.Ingested != before.Ingested {
					t.Fatalf("resubmitting acked frames moved ingest: %d -> %d", before.Ingested, after.Ingested)
				}
			})
		}
	}
}
