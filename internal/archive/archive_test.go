package archive

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/journal"
)

func batchOp(session string, seq uint64, payload string) *journal.Op {
	return &journal.Op{Kind: journal.OpBatchColumnar, Session: session, Seq: seq, Raw: []byte(payload)}
}

func replayOps(t *testing.T, s *journal.Store, programID string) []*journal.Op {
	t.Helper()
	var out []*journal.Op
	if _, err := s.Replay(programID, func(r journal.Receipt) error {
		op := r.Op()
		out = append(out, op)
		return nil
	}); err != nil {
		t.Fatalf("replay %s: %v", programID, err)
	}
	return out
}

func TestSegmentRoundTrip(t *testing.T) {
	in := &Segment{Kind: KindWALChunk, ProgramID: "prog/with spaces", Gen: 7, Part: 3, Offset: 1 << 20, Payload: []byte("payload bytes")}
	out, err := DecodeSegment(EncodeSegment(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
	// Empty payload, zero fields.
	in2 := &Segment{Kind: KindManifest, ProgramID: ""}
	if _, err := DecodeSegment(EncodeSegment(in2)); err != nil {
		t.Fatalf("decode empty: %v", err)
	}
}

func TestSegmentRejectsCorruption(t *testing.T) {
	frame := EncodeSegment(&Segment{Kind: KindFull, ProgramID: "p", Gen: 1, Payload: []byte("data")})
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x41
		if _, err := DecodeSegment(mut); err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, err := DecodeSegment(frame[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// seedStore builds a journal store with a few programs: checkpointed bases,
// delta segments, and live journal tails.
func seedStore(t *testing.T, dir string) *journal.Store {
	t.Helper()
	s, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		id := fmt.Sprintf("prog-%d", p)
		for seq := uint64(1); seq <= 4; seq++ {
			if err := s.Append(id, batchOp("boot", seq, fmt.Sprintf("t-%s-%d", id, seq))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(&journal.ProgramSnapshot{ProgramID: id, Tree: []byte("tree-" + id), Sessions: map[string]uint64{"boot": 4}}, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(id, batchOp("boot", 5, "after-ckpt")); err != nil {
			t.Fatal(err)
		}
		if p == 2 { // give one program a delta segment + fresh tail
			if err := s.CheckpointDelta(&journal.ProgramSnapshot{ProgramID: id, TreeDelta: []byte("patch-" + id), Sessions: map[string]uint64{"boot": 5}}); err != nil {
				t.Fatal(err)
			}
			if err := s.Append(id, batchOp("boot", 6, "after-delta")); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// TestSyncLoadRoundTrip: what the archiver ships is exactly what Load
// reassembles — base, deltas, and the acked journal region.
func TestSyncLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := seedStore(t, dir)
	defer s.Close()
	obj, err := NewDirStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	arc := New(s, obj, Options{Writer: "w1"})
	if err := arc.SyncAll(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	for _, id := range s.Programs() {
		want, err := s.ExportChain(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Load(obj, id)
		if err != nil {
			t.Fatalf("load %s: %v", id, err)
		}
		if got == nil {
			t.Fatalf("load %s: archive holds nothing", id)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("chain mismatch for %s:\nlocal   %+v\narchive %+v", id, want, got)
		}
	}
	st := arc.Stats()
	if st.SegmentsWritten == 0 || st.ManifestsWritten == 0 {
		t.Fatalf("archiver wrote nothing: %+v", st)
	}
}

// TestIncrementalWALChunks: re-syncing after more appends ships only the
// new suffix, and Load still reassembles the full region.
func TestIncrementalWALChunks(t *testing.T) {
	dir := t.TempDir()
	s := seedStore(t, dir)
	defer s.Close()
	obj, err := NewDirStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	arc := New(s, obj, Options{Writer: "w1"})
	if err := arc.SyncAll(); err != nil {
		t.Fatal(err)
	}
	before := arc.Stats().BytesWritten
	for seq := uint64(6); seq <= 9; seq++ {
		if err := s.Append("prog-0", batchOp("boot", seq, "incr")); err != nil {
			t.Fatal(err)
		}
	}
	if err := arc.SyncProgram("prog-0"); err != nil {
		t.Fatal(err)
	}
	want, _ := s.ExportChain("prog-0")
	got, err := Load(obj, "prog-0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.WAL, got.WAL) {
		t.Fatalf("wal mismatch after incremental sync: %d vs %d bytes", len(want.WAL), len(got.WAL))
	}
	// The second sync must not have re-shipped the base (only chunk+manifest).
	grew := arc.Stats().BytesWritten - before
	if grew <= 0 || grew > int64(len(want.WAL))+4096 {
		t.Fatalf("incremental sync wrote %d bytes — not incremental", grew)
	}
	// A no-change sync ships nothing.
	n := arc.Stats().SegmentsWritten
	if err := arc.SyncProgram("prog-0"); err != nil {
		t.Fatal(err)
	}
	if arc.Stats().SegmentsWritten != n {
		t.Fatal("no-op sync wrote segments")
	}
}

// TestMaterializeEqualsDiskRecovery: a directory rebuilt purely from the
// archive replays byte-identical operations and loads an identical chain —
// recovery-from-archive is recovery-from-disk by construction.
func TestMaterializeEqualsDiskRecovery(t *testing.T) {
	dir := t.TempDir()
	s := seedStore(t, dir)
	obj, err := NewDirStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := New(s, obj, Options{Writer: "w1"}).SyncAll(); err != nil {
		t.Fatal(err)
	}
	ids := s.Programs()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cold := t.TempDir()
	n, err := Materialize(obj, nil, cold)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if n != len(ids) {
		t.Fatalf("materialized %d programs, want %d", n, len(ids))
	}
	orig, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	rebuilt, err := journal.Open(cold, journal.Options{})
	if err != nil {
		t.Fatalf("open materialized dir: %v", err)
	}
	defer rebuilt.Close()
	if !reflect.DeepEqual(orig.Programs(), rebuilt.Programs()) {
		t.Fatalf("program sets differ: %v vs %v", orig.Programs(), rebuilt.Programs())
	}
	for _, id := range ids {
		wb, wd, err := orig.LoadChain(id)
		if err != nil {
			t.Fatal(err)
		}
		gb, gd, err := rebuilt.LoadChain(id)
		if err != nil {
			t.Fatalf("rebuilt chain %s: %v", id, err)
		}
		if !reflect.DeepEqual(wb, gb) || !reflect.DeepEqual(wd, gd) {
			t.Fatalf("chain %s differs between disk and archive recovery", id)
		}
		wops, gops := replayOps(t, orig, id), replayOps(t, rebuilt, id)
		if !reflect.DeepEqual(wops, gops) {
			t.Fatalf("replay %s differs: %d ops vs %d ops", id, len(wops), len(gops))
		}
	}
}

// TestPruneAndRehydrate: pruning against a tight budget tethers chains and
// frees disk; a pruned chain loads transparently through the archive
// fetcher; the budget holds across generations.
func TestPruneAndRehydrate(t *testing.T) {
	dir := t.TempDir()
	s := seedStore(t, dir)
	defer s.Close()
	obj, err := NewDirStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetChainFetcher(ChainFetcher(obj))
	arc := New(s, obj, Options{Writer: "w1", DiskBudget: 1}) // prune everything prunable
	if err := arc.SyncAll(); err != nil {
		t.Fatal(err)
	}
	st := arc.Stats()
	if st.ChainsPruned == 0 || st.BytesPruned == 0 {
		t.Fatalf("nothing pruned: %+v", st)
	}
	// Chains are tethered now; loading pulls the bytes back from the store.
	for _, id := range s.Programs() {
		base, _, err := s.LoadChain(id)
		if err != nil {
			t.Fatalf("load pruned chain %s: %v", id, err)
		}
		if base == nil || base.ProgramID != id {
			t.Fatalf("pruned chain %s rehydrated wrong: %+v", id, base)
		}
	}
}

// TestTetheredSyncKeepsNewestDelta: after CheckpointDelta the newest
// delta's generation *equals* the WAL generation, so a sync on a pruned
// (tethered) chain with no intervening checkpoint — exactly what an archive
// tick between snapshot intervals does — must carry that delta forward in
// the manifest. Dropping it would amputate the archived chain's newest
// generation and break every rehydration and cold-standby rebuild after it.
func TestTetheredSyncKeepsNewestDelta(t *testing.T) {
	dir := t.TempDir()
	s := seedStore(t, dir)
	defer s.Close()
	obj, err := NewDirStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetChainFetcher(ChainFetcher(obj))
	arc := New(s, obj, Options{Writer: "w1", DiskBudget: 1})
	if err := arc.SyncAll(); err != nil { // archive, then prune every chain
		t.Fatal(err)
	}
	// prog-2's newest delta sits at the current WAL generation (seedStore
	// runs CheckpointDelta last). Grow the journal without a checkpoint and
	// sync the now-tethered chain again.
	const id = "prog-2"
	if err := s.Append(id, batchOp("boot", 7, "post-prune")); err != nil {
		t.Fatal(err)
	}
	if err := arc.SyncProgram(id); err != nil {
		t.Fatal(err)
	}
	got, err := Load(obj, id)
	if err != nil {
		t.Fatalf("load after tethered sync: %v", err)
	}
	found := false
	for _, d := range got.Deltas {
		found = found || d.Gen == got.WALGen
	}
	if !found {
		t.Fatalf("archived chain lost the delta at WAL generation %d: %+v", got.WALGen, got.Deltas)
	}
	// The store must still rehydrate the full chain through that manifest.
	base, deltas, err := s.LoadChain(id)
	if err != nil {
		t.Fatalf("rehydrate after tethered sync: %v", err)
	}
	if base == nil || len(deltas) == 0 {
		t.Fatalf("rehydrated chain incomplete: base=%v deltas=%d", base, len(deltas))
	}
}

// TestPruneWithoutFetcherFails: a pruned chain without an installed fetcher
// must refuse to load — never silently return an empty program.
func TestPruneWithoutFetcherFails(t *testing.T) {
	dir := t.TempDir()
	s := seedStore(t, dir)
	defer s.Close()
	obj, err := NewDirStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	arc := New(s, obj, Options{Writer: "w1", DiskBudget: 1})
	if err := arc.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadChain("prog-0"); err == nil {
		t.Fatal("loading a pruned chain with no fetcher succeeded")
	}
}

// TestReconcileNewestGenerationWins: two replicas archive the same program;
// the reader follows whichever shipped the newer generation, and ties break
// deterministically.
func TestReconcileNewestGenerationWins(t *testing.T) {
	dir := t.TempDir()
	s := seedStore(t, dir)
	obj, err := NewDirStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Writer A archives the current state.
	if err := New(s, obj, Options{Writer: "a"}).SyncAll(); err != nil {
		t.Fatal(err)
	}
	// The program advances a generation; writer B archives the newer chain.
	if err := s.Checkpoint(&journal.ProgramSnapshot{ProgramID: "prog-0", Tree: []byte("tree-v2"), Sessions: map[string]uint64{"boot": 9}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := New(s, obj, Options{Writer: "b"}).SyncProgram("prog-0"); err != nil {
		t.Fatal(err)
	}
	want, _ := s.ExportChain("prog-0")
	got, err := Load(obj, "prog-0")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reconciled chain is not writer B's newer generation:\nwant %+v\ngot  %+v", want, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDirStoreBadKeys: traversal and absolute keys are rejected.
func TestDirStoreBadKeys(t *testing.T) {
	obj, err := NewDirStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "a/../../b", "/abs"} {
		if err := obj.Put(key, []byte("x")); err == nil {
			t.Fatalf("key %q accepted", key)
		}
	}
	if _, err := obj.Get("missing/object"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object: got %v, want ErrNotFound", err)
	}
}

// TestDiskBudgetSoakMultiGeneration: a multi-generation ingest soak under a
// fixed disk budget. Each round layers a delta checkpoint plus a live WAL
// tail onto every program's chain, so without pruning the data dir grows
// without bound; with the budget pinned to the round-0 footprint, every
// post-sync measurement must come back at or under it, and every pruned
// chain must stay loadable through the archive fetcher.
func TestDiskBudgetSoakMultiGeneration(t *testing.T) {
	dir := t.TempDir()
	s, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	obj, err := NewDirStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const programs = 3
	pad := bytes.Repeat([]byte("x"), 64)
	seq := make([]uint64, programs)
	round := func(r int, full bool) {
		for p := 0; p < programs; p++ {
			id := fmt.Sprintf("prog-%d", p)
			for k := 0; k < 6; k++ {
				seq[p]++
				if err := s.Append(id, batchOp("soak", seq[p], fmt.Sprintf("r%d-%s-%d-%s", r, id, seq[p], pad))); err != nil {
					t.Fatal(err)
				}
			}
			snap := &journal.ProgramSnapshot{ProgramID: id, Sessions: map[string]uint64{"soak": seq[p]}}
			if full {
				snap.Tree = append([]byte(fmt.Sprintf("tree-%s-r%d-", id, r)), bytes.Repeat([]byte("T"), 2048)...)
				if err := s.Checkpoint(snap, 0); err != nil {
					t.Fatal(err)
				}
			} else {
				snap.TreeDelta = append([]byte(fmt.Sprintf("patch-%s-r%d-", id, r)), bytes.Repeat([]byte("D"), 512)...)
				if err := s.CheckpointDelta(snap); err != nil {
					t.Fatal(err)
				}
			}
			// A live tail after the checkpoint: the un-prunable remainder a
			// real hive always carries.
			seq[p]++
			if err := s.Append(id, batchOp("soak", seq[p], fmt.Sprintf("tail-r%d-%s", r, id))); err != nil {
				t.Fatal(err)
			}
		}
	}
	round(0, true)
	budget, err := s.DiskUsage()
	if err != nil || budget <= 0 {
		t.Fatalf("round-0 footprint: %d, %v", budget, err)
	}
	s.SetChainFetcher(ChainFetcher(obj))
	arc := New(s, obj, Options{Writer: "soak", DiskBudget: budget})
	for r := 1; r <= 5; r++ {
		round(r, false)
		if err := arc.SyncAll(); err != nil {
			t.Fatalf("round %d sync: %v", r, err)
		}
		du, err := s.DiskUsage()
		if err != nil {
			t.Fatal(err)
		}
		if du > budget {
			t.Fatalf("round %d: data dir %dB over the %dB budget", r, du, budget)
		}
	}
	st := arc.Stats()
	if st.ChainsPruned == 0 || st.BytesPruned == 0 {
		t.Fatalf("soak never pruned: %+v", st)
	}
	// Every chain — pruned to a tether or not — must still load with its
	// full acked history, pulled back through the fetcher as needed.
	for p := 0; p < programs; p++ {
		id := fmt.Sprintf("prog-%d", p)
		base, deltas, err := s.LoadChain(id)
		if err != nil {
			t.Fatalf("load %s after soak: %v", id, err)
		}
		if base == nil || base.ProgramID != id {
			t.Fatalf("program %s lost its base across the soak: %+v", id, base)
		}
		if len(deltas) == 0 {
			t.Fatalf("program %s lost its delta layers across the soak", id)
		}
		if got := deltas[len(deltas)-1].Sessions["soak"]; got != seq[p]-1 {
			t.Fatalf("program %s newest delta covers seq %d, want %d", id, got, seq[p]-1)
		}
	}
}
