package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/exectree"
)

// batchOp is a batch op whose batch bytes are raw: the journal carries them
// without parsing.
func batchOp(session string, seq uint64, raw string) *Op {
	return &Op{Kind: OpBatchColumnar, Session: session, Seq: seq, Raw: []byte(raw)}
}

func collect(t *testing.T, s *Store, programID string) []*Op {
	t.Helper()
	var out []*Op
	if _, err := s.Replay(programID, func(r Receipt) error {
		op := r.Op()
		out = append(out, op)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestOpCodecRoundTrip(t *testing.T) {
	ops := []*Op{
		batchOp("sess-1", 7, "trace-a|trace-b"),
		batchOp("", 0, ""),
		{Kind: OpSynthesis, Signature: "crash@3#-1", Fix: []byte(`{"id":1}`)},
		{Kind: OpSynthesis, Signature: "hang@9#-1"},
		{Kind: OpProof, Proof: []byte(`{"Property":1}`)},
		{
			Kind:    OpCert,
			Prefix:  []exectree.Edge{{ID: 1, Taken: true}, {ID: 4, Taken: false}},
			Missing: exectree.Edge{ID: 9, Taken: true},
		},
	}
	for i, op := range ops {
		got, err := decodeOp(appendOp(nil, op))
		if err != nil {
			t.Fatalf("op %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(op)) {
			t.Fatalf("op %d: round-trip mismatch:\n got %+v\nwant %+v", i, got, op)
		}
	}
}

// normalize maps nil and empty slices to a comparable form.
func normalize(op *Op) *Op {
	c := *op
	if len(c.Raw) == 0 {
		c.Raw = nil
	}
	if len(c.Fix) == 0 {
		c.Fix = nil
	}
	if len(c.Prefix) == 0 {
		c.Prefix = nil
	}
	return &c
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []*Op{
		batchOp("s", 1, "t1"),
		batchOp("s", 2, "t2|t3"),
		{Kind: OpSynthesis, Signature: "sig", Fix: []byte("{}")},
	}
	for _, op := range want {
		if err := s.Append("prog-A", op); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Programs(); len(got) != 1 || got[0] != "prog-A" {
		t.Fatalf("Programs() = %v, want [prog-A]", got)
	}
	got := collect(t, s2, "prog-A")
	if len(got) != len(want) {
		t.Fatalf("replayed %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(normalize(got[i]), normalize(want[i])) {
			t.Fatalf("op %d mismatch: got %+v want %+v", i, got[i], want[i])
		}
	}
	// Replay then append continues the same journal.
	if err := s2.Append("prog-A", batchOp("s", 3, "t4")); err != nil {
		t.Fatal(err)
	}
}

func TestReplayTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("prog-A", batchOp("s", 1, "good")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("prog-A", batchOp("s", 2, "also-good")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the file tail.
	path := walFileIn(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := collect(t, s2, "prog-A")
	if len(got) != 1 || string(got[0].Raw) != "good" {
		t.Fatalf("after torn tail: got %d ops, want the 1 intact op", len(got))
	}
	// The torn bytes were truncated, so a new append yields a valid journal.
	if err := s2.Append("prog-A", batchOp("s", 2, "resent")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	got = collect(t, s3, "prog-A")
	if len(got) != 2 || string(got[1].Raw) != "resent" {
		t.Fatalf("after truncate+append: got %d ops", len(got))
	}
}

func walFileIn(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			return filepath.Join(dir, e.Name())
		}
	}
	t.Fatal("no wal file found")
	return ""
}

func TestCheckpointRotatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("prog-A", batchOp("s", 1, "pre")); err != nil {
		t.Fatal(err)
	}
	snap := &ProgramSnapshot{
		ProgramID: "prog-A",
		Tree:      []byte("tree-bytes"),
		Epoch:     3,
		Ingested:  11,
		Sessions:  map[string]uint64{"s": 1},
		Failures: []FailureState{
			{Signature: "crash@1#-1", Outcome: 2, Count: 4, Pods: []string{"p1", "p2"}, Fixed: true},
		},
	}
	if err := s.Checkpoint(snap, 0); err != nil {
		t.Fatal(err)
	}
	// Ops after the checkpoint land in the new generation.
	if err := s.Append("prog-A", batchOp("s", 2, "post")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	loaded, _, err := s2.LoadChain("prog-A")
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil || loaded.Epoch != 3 || loaded.Ingested != 11 ||
		!bytes.Equal(loaded.Tree, snap.Tree) || loaded.Sessions["s"] != 1 {
		t.Fatalf("snapshot mismatch: %+v", loaded)
	}
	if len(loaded.Failures) != 1 || loaded.Failures[0].Count != 4 || !loaded.Failures[0].Fixed {
		t.Fatalf("failure state mismatch: %+v", loaded.Failures)
	}
	got := collect(t, s2, "prog-A")
	if len(got) != 1 || string(got[0].Raw) != "post" {
		t.Fatalf("replay after checkpoint: got %d ops, want only the post-checkpoint op", len(got))
	}
}

func TestSnapshotOnlyNoJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(&ProgramSnapshot{ProgramID: "prog-B", Tree: []byte("x")}, 0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Programs(); len(got) != 1 || got[0] != "prog-B" {
		t.Fatalf("Programs() = %v", got)
	}
	snap, _, err := s2.LoadChain("prog-B")
	if err != nil || snap == nil {
		t.Fatalf("LoadChain: %v %v", snap, err)
	}
	if got := collect(t, s2, "prog-B"); len(got) != 0 {
		t.Fatalf("expected empty journal, got %d ops", len(got))
	}
}

func TestProgramsIsolated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append("prog-A", batchOp("s", 1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("prog-B", batchOp("s", 2, "b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(&ProgramSnapshot{ProgramID: "prog-A"}, 0); err != nil {
		t.Fatal(err)
	}
	// prog-A's checkpoint must not disturb prog-B's journal.
	if got := collect(t, s, "prog-B"); len(got) != 1 || string(got[0].Raw) != "b" {
		t.Fatalf("prog-B journal disturbed: %d ops", len(got))
	}
}

func TestFreshProgramHasNoState(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap, _, err := s.LoadChain("never-seen")
	if err != nil || snap != nil {
		t.Fatalf("LoadChain fresh: %v %v", snap, err)
	}
	if got := collect(t, s, "never-seen"); len(got) != 0 {
		t.Fatalf("fresh program replayed %d ops", len(got))
	}
}

func TestGroupCommitAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: true, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent appenders: every acknowledged record must survive, exactly
	// once, however the leaders cut their groups.
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				op := batchOp(fmt.Sprintf("w%d", w), uint64(i+1), fmt.Sprintf("w%d-r%d", w, i))
				if err := s.Append("prog-A", op); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	seen := make(map[string]int)
	perSession := make(map[string]uint64)
	for _, op := range collect(t, s2, "prog-A") {
		seen[string(op.Raw)]++
		// Within one appender the journal preserves submission order: each
		// worker's sequence numbers must replay ascending.
		if op.Seq <= perSession[op.Session] {
			t.Fatalf("session %s: seq %d replayed after %d", op.Session, op.Seq, perSession[op.Session])
		}
		perSession[op.Session] = op.Seq
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), workers*perWorker)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("record %s replayed %d times", k, n)
		}
	}
}

func TestGroupCommitSequentialOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := s.Append("prog-A", batchOp("s", uint64(i), "r")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := collect(t, s2, "prog-A")
	if len(got) != 50 {
		t.Fatalf("replayed %d ops, want 50", len(got))
	}
	for i, op := range got {
		if op.Seq != uint64(i+1) {
			t.Fatalf("op %d has seq %d: sequential appends reordered", i, op.Seq)
		}
	}
}

func TestGroupCommitBeforeReplayFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("prog-A", batchOp("s", 1, "a")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// prog-A has un-replayed state: appending before Replay must fail so a
	// torn tail can never be buried under fresh records.
	if err := s2.Append("prog-A", batchOp("s", 2, "b")); err == nil {
		t.Fatal("group append before Replay succeeded")
	}
	if _, err := s2.Replay("prog-A", func(Receipt) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s2.Append("prog-A", batchOp("s", 2, "b")); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaCheckpointChain(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Delta without a base must be refused: the chain would be headless.
	if err := s.CheckpointDelta(&ProgramSnapshot{ProgramID: "prog-A", TreeDelta: []byte("d")}); err == nil {
		t.Fatal("delta checkpoint without base succeeded")
	}
	if err := s.Append("prog-A", batchOp("s", 1, "pre-base")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(&ProgramSnapshot{ProgramID: "prog-A", Tree: []byte("base"), Epoch: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("prog-A", batchOp("s", 2, "in-delta-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointDelta(&ProgramSnapshot{ProgramID: "prog-A", TreeDelta: []byte("d1"), Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("prog-A", batchOp("s", 3, "in-delta-2")); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointDelta(&ProgramSnapshot{ProgramID: "prog-A", TreeDelta: []byte("d2"), Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("prog-A", batchOp("s", 4, "post-chain")); err != nil {
		t.Fatal(err)
	}
	if got := s.ChainLength("prog-A"); got != 2 {
		t.Fatalf("ChainLength = %d, want 2", got)
	}
	s.Close()

	// A fresh Open must rediscover the whole chain.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, deltas, err := s2.LoadChain("prog-A")
	if err != nil {
		t.Fatal(err)
	}
	if base == nil || string(base.Tree) != "base" || base.Epoch != 1 {
		t.Fatalf("base mismatch: %+v", base)
	}
	if len(deltas) != 2 || string(deltas[0].TreeDelta) != "d1" || string(deltas[1].TreeDelta) != "d2" || deltas[1].Epoch != 3 {
		t.Fatalf("delta chain mismatch: %d segments", len(deltas))
	}
	// Only the post-chain suffix replays.
	got := collect(t, s2, "prog-A")
	if len(got) != 1 || string(got[0].Raw) != "post-chain" {
		t.Fatalf("replay after chain: got %d ops", len(got))
	}
	// A full checkpoint compacts: chain collapses to one base, deltas gone.
	if err := s2.Checkpoint(&ProgramSnapshot{ProgramID: "prog-A", Tree: []byte("base2"), Epoch: 4}, 0); err != nil {
		t.Fatal(err)
	}
	if got := s2.ChainLength("prog-A"); got != 0 {
		t.Fatalf("ChainLength after compaction = %d, want 0", got)
	}
	s2.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "delta-") {
			t.Fatalf("stale delta segment %s survived compaction", e.Name())
		}
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	base, deltas, err = s3.LoadChain("prog-A")
	if err != nil {
		t.Fatal(err)
	}
	if base == nil || string(base.Tree) != "base2" || len(deltas) != 0 {
		t.Fatalf("after compaction: base=%v deltas=%d", base, len(deltas))
	}
}

// eioFS wraps an FS and fails OpenFile on matching names with EIO — a
// transient read failure on an intact disk, not corruption.
type eioFS struct {
	FS
	substr string
}

func (f eioFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if strings.Contains(name, f.substr) {
		return nil, &os.PathError{Op: "open", Path: name, Err: syscall.EIO}
	}
	return f.FS.OpenFile(name, flag, perm)
}

// TestScanTransientReadErrorRefusesOpen: a flaky disk at open time (EIO on
// an intact journal) must refuse to open the store — never quarantine the
// key, which would permanently delete acked durable state. Only keys whose
// every identity probe comes back missing/corrupt are quarantined.
func TestScanTransientReadErrorRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.Append("prog-a", batchOp("boot", seq, "t")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen behind an FS that EIOs every journal open: the scan's identity
	// probe hits the transient error and the open must fail.
	if _, err := Open(dir, Options{FS: eioFS{FS: OSFS(), substr: "wal-"}}); err == nil {
		t.Fatal("open over a flaky disk succeeded; acked journal may have been quarantined")
	}

	// The acked journal must still be on disk, and a healthy reopen must
	// recover every record.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("healthy reopen: %v", err)
	}
	defer s2.Close()
	if got := collect(t, s2, "prog-a"); len(got) != 3 {
		t.Fatalf("recovered %d ops after transient-error open, want 3", len(got))
	}
}

// TestScanQuarantinesUnreadableRemains: a key whose files are all torn or
// empty (a creation that never completed — no acked record can live there)
// is still quarantined rather than failing the whole open.
func TestScanQuarantinesUnreadableRemains(t *testing.T) {
	dir := t.TempDir()
	// An empty journal (header never landed) and a garbage snapshot under
	// the same key: no probe can recover an identity.
	if err := os.WriteFile(filepath.Join(dir, "wal-deadbeef00000000-1.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-deadbeef00000000-1.snap"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with unreadable remains: %v", err)
	}
	defer s.Close()
	if progs := s.Programs(); len(progs) != 0 {
		t.Fatalf("quarantined key surfaced programs: %v", progs)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), "deadbeef") {
			t.Fatalf("quarantined file %s left behind", e.Name())
		}
	}
}
