package hive

// One chain, one restore: a program's state leaves a hive, a data directory
// or the object store as a journal.ChainExport, and recoverProgram is the one
// function that makes it live again. These tests hold the routes to the same
// result, and pin the three things that used to go wrong where the routes
// met: a re-homed chain's generation, a dropped program's files, and an
// import that fails half-way.

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/archive"
	"repro/internal/exectree"
	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/prog"
	"repro/internal/proof"
	"repro/internal/trace"
)

// newMemHive registers the corpus on a hive with no journal.
func newMemHive(t testing.TB, corpus []*prog.Program) *Hive {
	t.Helper()
	h := New("fleet")
	for _, p := range corpus {
		if err := h.RegisterProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// openStore opens dir with the archive's chain fetcher installed.
func openStore(t testing.TB, dir string, obj archive.ObjectStore) *journal.Store {
	t.Helper()
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store.SetChainFetcher(archive.ChainFetcher(obj))
	return store
}

// assertRestored holds got to the full equality the routes promise: program
// stats, tree stats, frontiers, failure tables, fixes and proofs equal to the
// source's, and a duplicate acknowledgement for every frame the source
// acknowledged (then a fresh one applied, a session).
func assertRestored(t *testing.T, want, got *Hive, corpus []*prog.Program, acked []sessionFrame) {
	t.Helper()
	assertHivesEqual(t, want, got, corpus)
	for _, p := range corpus {
		wt, _ := want.Tree(p.ID)
		gt, _ := got.Tree(p.ID)
		if !reflect.DeepEqual(wt.Stats(), gt.Stats()) {
			t.Errorf("program %s: tree stats\n want %+v\n  got %+v", p.Name, wt.Stats(), gt.Stats())
		}
	}
	assertSessionsAnswerAlike(t, got, acked)
}

// importAll imports each program's chain into a fresh durable hive.
func importAll(t *testing.T, corpus []*prog.Program, chain func(id string) (*journal.ChainExport, error)) *Hive {
	t.Helper()
	dst, store := newDurableHive(t, t.TempDir(), corpus)
	t.Cleanup(func() { store.Close() })
	for _, p := range corpus {
		c, err := chain(p.ID)
		if err != nil {
			t.Fatalf("chain of %s: %v", p.Name, err)
		}
		if c == nil {
			t.Fatalf("chain of %s: nothing held", p.Name)
		}
		if err := dst.ImportProgram(c); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestChainRoutesRestoreAlike builds, for every program, a chain with a base,
// two delta segments and a journal suffix (certificates and proofs in it), and
// restores it by every route state can take: a reboot from the directory, an
// import of the directory's chain (Store.ExportChain: dead-hive takeover), an
// import of the archived chain (archive.Load: cold standby) and an import of
// the live hive's one-segment chain (ExportProgram: re-homing). All four must
// give the hive that wrote the directory. The tethered variant prunes the
// directory to the archive tier first: a reboot rehydrates it, ExportChain
// still exports it whole — through the fetcher, in memory — and neither that
// nor the archiver's next sync writes a pruned file back.
//
// It replaces TestExportFromStore (export present, acknowledged frame a
// duplicate on the importer: the "directory's chain" route) and the stats and
// duplicate assertions of TestExportImportRoundTrip (the "live chain" route).
func TestChainRoutesRestoreAlike(t *testing.T) {
	for _, tethered := range []bool{false, true} {
		t.Run(fmt.Sprintf("tethered=%v", tethered), func(t *testing.T) {
			corpus := recoveryCorpus(t, 3)
			src := t.TempDir()
			want, acked := buildRecoveryDir(t, src, corpus)
			obj, err := archive.NewDirStore(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			// What a hive with an archive tier leaves behind: every chain
			// synced and, for the tethered variant, every base and delta
			// pruned against a budget nothing fits.
			opts := archive.Options{Writer: "src"}
			if tethered {
				opts.DiskBudget = 1
			}
			store := openStore(t, src, obj)
			arc := archive.New(store, obj, opts)
			if err := arc.SyncAll(); err != nil {
				t.Fatal(err)
			}
			pruned := func(s *journal.Store) {
				t.Helper()
				if !tethered {
					return
				}
				for _, p := range corpus {
					if n := s.ChainSize(p.ID); n != 0 {
						t.Fatalf("program %s: %d B of chain in the directory, want it pruned", p.Name, n)
					}
				}
			}
			pruned(store)
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			t.Run("reboot", func(t *testing.T) {
				dir := t.TempDir()
				copyDir(t, src, dir)
				got := newMemHive(t, corpus)
				store := openStore(t, dir, obj)
				defer store.Close()
				if err := got.Recover(store); err != nil {
					t.Fatal(err)
				}
				assertRestored(t, want, got, corpus, acked)
			})
			t.Run("directory chain", func(t *testing.T) {
				dir := t.TempDir()
				copyDir(t, src, dir)
				store := openStore(t, dir, obj)
				defer store.Close()
				got := importAll(t, corpus, store.ExportChain)
				pruned(store) // exporting fetched, and wrote nothing back
				if err := archive.New(store, obj, archive.Options{Writer: "takeover"}).SyncAll(); err != nil {
					t.Fatal(err)
				}
				pruned(store) // nor does the archiver's sync rehydrate
				assertRestored(t, want, got, corpus, acked)
			})
			t.Run("archived chain", func(t *testing.T) {
				got := importAll(t, corpus, func(id string) (*journal.ChainExport, error) { return archive.Load(obj, id) })
				assertRestored(t, want, got, corpus, acked)
			})
			t.Run("live chain", func(t *testing.T) {
				got := importAll(t, corpus, want.ExportProgram)
				assertRestored(t, want, got, corpus, acked)
			})
		})
	}
}

// ackedFrames submits n single-trace frames of p to h on one session,
// continuing at *seq, and fails the test unless each is applied.
func ackedFrames(t *testing.T, h *Hive, p *prog.Program, seq *uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		*seq++
		tr := captureSeqTrace(t, p, "pod-g", *seq, []int64{int64(*seq * 7 % 256)}, trace.PrivacyHashed)
		if dup, err := submitSession(t, h, "gen", *seq, p.ID, []*trace.Trace{tr}); err != nil || dup {
			t.Fatalf("frame %d: dup=%v err=%v", *seq, dup, err)
		}
	}
}

// TestRehomedChainOutranksOldOwner: the archive ranks a program's manifests
// by chain generation first, so a chain that changes hands must keep counting
// where the old owner stopped. A checkpoints five times and archives; the
// program is exported and imported on B, which ingests thirteen more traces,
// checkpoints and archives into the same store; a cold standby from that
// store must rebuild all of B's traces, not A's older chain — and again when
// the standby's own hive fails in turn. B's directory may still hold files
// for the program from an earlier tenancy, below or above A's generation.
func TestRehomedChainOutranksOldOwner(t *testing.T) {
	for _, tenancy := range []uint64{0, 2, 9} {
		t.Run(fmt.Sprintf("earlier tenancy at generation %d", tenancy), func(t *testing.T) {
			corpus := durableCorpus(t)
			p := corpus[0]
			obj, err := archive.NewDirStore(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			var seq uint64

			ha, storeA := newDurableHive(t, t.TempDir(), corpus)
			defer storeA.Close()
			for i := 0; i < 5; i++ {
				ackedFrames(t, ha, p, &seq, 4)
				if err := ha.CheckpointProgram(p.ID); err != nil {
					t.Fatal(err)
				}
			}
			ackedFrames(t, ha, p, &seq, 2)
			if err := archive.New(storeA, obj, archive.Options{Writer: "a"}).SyncAll(); err != nil {
				t.Fatal(err)
			}
			genA := storeA.Generation(p.ID)

			dirB := t.TempDir()
			if tenancy > 0 {
				// What an owner of long ago left behind: an empty program
				// checkpointed at some generation.
				s, err := journal.Open(dirB, journal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				empty := &journal.ProgramSnapshot{ProgramID: p.ID, Tree: exectree.New(p.ID).Encode()}
				if err := s.Checkpoint(empty, tenancy-1); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			hb, storeB := newDurableHive(t, dirB, corpus)
			defer storeB.Close()
			chain, err := ha.ExportProgram(p.ID)
			if err != nil {
				t.Fatal(err)
			}
			if chain.WALGen != genA {
				t.Fatalf("live chain cut at generation %d, A's store is at %d", chain.WALGen, genA)
			}
			if err := hb.ImportProgram(chain); err != nil {
				t.Fatal(err)
			}
			if g := storeB.Generation(p.ID); g <= genA || g <= tenancy {
				t.Fatalf("B holds the chain at generation %d; want it above A's %d and the earlier tenancy's %d", g, genA, tenancy)
			}
			ackedFrames(t, hb, p, &seq, 13)
			if err := hb.CheckpointProgram(p.ID); err != nil {
				t.Fatal(err)
			}
			ackedFrames(t, hb, p, &seq, 3)
			if err := archive.New(storeB, obj, archive.Options{Writer: "b"}).SyncAll(); err != nil {
				t.Fatal(err)
			}

			// B dies with its disk. The standby imports from the store.
			standby := func(want *Hive) (*Hive, *journal.Store) {
				t.Helper()
				chains, closer, err := ExportFromArchive(obj, "", corpus, "")
				if err != nil {
					t.Fatal(err)
				}
				defer closer.Close()
				h, store := newDurableHive(t, t.TempDir(), corpus)
				if err := h.ImportProgram(chains[p.ID]); err != nil {
					t.Fatal(err)
				}
				if st, _ := h.ProgramStats(p.ID); st.Ingested != int64(seq) {
					t.Fatalf("cold standby rebuilt %d of the %d traces acknowledged", st.Ingested, seq)
				}
				assertHivesEqual(t, want, h, []*prog.Program{p})
				return h, store
			}
			hc, storeC := standby(hb)
			defer storeC.Close()

			// And the standby's hive fails in turn.
			ackedFrames(t, hc, p, &seq, 5)
			if err := hc.CheckpointProgram(p.ID); err != nil {
				t.Fatal(err)
			}
			ackedFrames(t, hc, p, &seq, 2)
			if err := archive.New(storeC, obj, archive.Options{Writer: "c"}).SyncAll(); err != nil {
				t.Fatal(err)
			}
			hd, storeD := standby(hc)
			defer storeD.Close()
			for s := uint64(1); s <= seq; s++ {
				tr := captureSeqTrace(t, p, "pod-g", s, []int64{int64(s * 7 % 256)}, trace.PrivacyHashed)
				if dup, err := submitSession(t, hd, "gen", s, p.ID, []*trace.Trace{tr}); err != nil || !dup {
					t.Fatalf("acknowledged frame %d on the last standby: dup=%v err=%v", s, dup, err)
				}
			}
		})
	}
}

// keyFiles lists what dir holds under a program's file key.
func keyFiles(t *testing.T, dir, programID string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*-"+journal.FileKey(programID)+"*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDropProgramRemovesDurableState: a program given away leaves the
// directory too — chain, tether marker and journal — so the hive that gave it
// away does not come back up holding it, and takes it back later by import.
// The archiver keeps syncing the rest.
func TestDropProgramRemovesDurableState(t *testing.T) {
	corpus := durableCorpus(t)
	p, other := corpus[0], corpus[1]
	dirA := t.TempDir()
	obj, err := archive.NewDirStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ha := newMemHive(t, corpus)
	storeA := openStore(t, dirA, obj)
	if err := ha.Recover(storeA); err != nil {
		t.Fatal(err)
	}
	var seq uint64
	ackedFrames(t, ha, p, &seq, 6)
	feedFleet(t, ha, []*prog.Program{other}, 8, 3)
	if err := ha.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	arc := archive.New(storeA, obj, archive.Options{Writer: "a", DiskBudget: 1})
	if err := arc.SyncAll(); err != nil { // prunes: a tether marker stands in for p's base
		t.Fatal(err)
	}
	ackedFrames(t, ha, p, &seq, 3) // a journal suffix, its file open
	if len(keyFiles(t, dirA, p.ID)) < 2 {
		t.Fatalf("fixture: want a tether marker and a journal for %s, have %v", p.Name, keyFiles(t, dirA, p.ID))
	}

	hb := newMemHive(t, corpus)
	chain, err := ha.ExportProgram(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.ImportProgram(chain); err != nil {
		t.Fatal(err)
	}
	if err := ha.DropProgram(p.ID); err != nil {
		t.Fatal(err)
	}
	if files := keyFiles(t, dirA, p.ID); len(files) != 0 {
		t.Fatalf("dropped program left %v", files)
	}
	tr := captureSeqTrace(t, p, "pod-g", 99, []int64{1}, trace.PrivacyHashed)
	if _, err := submitSession(t, ha, "gen", 99, p.ID, []*trace.Trace{tr}); !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("frame for a dropped program: %v, want ErrUnknownProgram", err)
	}
	if err := ha.DropProgram(p.ID); err != nil { // idempotent
		t.Fatal(err)
	}
	// The archiver had sync state for the program: it must let go of it.
	if err := arc.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if got := storeA.Programs(); len(got) != 1 || got[0] != other.ID {
		t.Fatalf("store holds %v after the drop and a sync, want only %s", got, other.ID)
	}
	wantOther, err := ha.ProgramStats(other.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := storeA.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot: the program is registered (the corpus is fleet-wide) and empty.
	ha2 := newMemHive(t, corpus)
	storeA2 := openStore(t, dirA, obj)
	defer storeA2.Close()
	if err := ha2.Recover(storeA2); err != nil {
		t.Fatal(err)
	}
	if st, _ := ha2.ProgramStats(p.ID); st.Ingested != 0 {
		t.Fatalf("the hive that gave %s away came back up with %d of its traces", p.Name, st.Ingested)
	}
	if st, _ := ha2.ProgramStats(other.ID); st.Ingested != wantOther.Ingested {
		t.Fatalf("the program kept: %d traces after reboot, want %d", st.Ingested, wantOther.Ingested)
	}
	// And the program moves back.
	back, err := hb.ExportProgram(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := ha2.ImportProgram(back); err != nil {
		t.Fatalf("moving the program back: %v", err)
	}
	assertHivesEqual(t, hb, ha2, []*prog.Program{p})
}

// TestImportAllOrNothing: an import that fails — the chain corrupt in a late
// segment or a late journal record, or the checkpoint that makes it durable
// refused by the disk — leaves the program as registration left it, nothing
// in the directory and nothing journaled, and the same import succeeds once
// the cause is gone.
func TestImportAllOrNothing(t *testing.T) {
	corpus := recoveryCorpus(t, 3)
	src := t.TempDir()
	want, acked := buildRecoveryDir(t, src, corpus)
	store, err := journal.Open(src, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	chains := map[string]*journal.ChainExport{}
	for _, p := range corpus {
		if chains[p.ID], err = store.ExportChain(p.ID); err != nil {
			t.Fatal(err)
		}
	}
	flip := func(b []byte) []byte {
		out := append([]byte(nil), b...)
		out[len(out)/2] ^= 0xff
		return out
	}
	fresh := newMemHive(t, corpus)

	cases := []struct {
		name string
		// spoil returns the chain a failing import is given, and may break
		// the disk; mend undoes the latter.
		spoil func(c journal.ChainExport, ffs *faultfs.FS) *journal.ChainExport
		mend  func(ffs *faultfs.FS)
	}{
		{name: "last delta segment corrupt", spoil: func(c journal.ChainExport, _ *faultfs.FS) *journal.ChainExport {
			c.Deltas = append([]journal.ChainDelta(nil), c.Deltas...)
			last := &c.Deltas[len(c.Deltas)-1]
			last.Data = flip(last.Data)
			return &c
		}},
		{name: "journal record corrupt", spoil: func(c journal.ChainExport, _ *faultfs.FS) *journal.ChainExport {
			c.WAL = flip(c.WAL)
			return &c
		}},
		{name: "journal region cut short", spoil: func(c journal.ChainExport, _ *faultfs.FS) *journal.ChainExport {
			c.WAL = c.WAL[:len(c.WAL)-3]
			return &c
		}},
		{name: "chain of another program", spoil: func(c journal.ChainExport, _ *faultfs.FS) *journal.ChainExport {
			other := *chains[corpus[(indexOf(corpus, c.ProgramID)+1)%len(corpus)].ID]
			other.ProgramID = c.ProgramID
			return &other
		}},
		{name: "ENOSPC on the checkpoint", spoil: func(c journal.ChainExport, ffs *faultfs.FS) *journal.ChainExport {
			ffs.ForceENOSPC(true)
			return &c
		}, mend: func(ffs *faultfs.FS) { ffs.ForceENOSPC(false) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.Wrap(nil, faultfs.Plan{})
			dst := newMemHive(t, corpus)
			dstStore, err := journal.Open(dir, journal.Options{FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			defer dstStore.Close()
			if err := dst.Recover(dstStore); err != nil {
				t.Fatal(err)
			}
			for _, p := range corpus {
				if err := dst.ImportProgram(tc.spoil(*chains[p.ID], ffs)); err == nil {
					t.Fatalf("program %s: the import succeeded", p.Name)
				}
				if tc.mend != nil {
					tc.mend(ffs)
				}
				if files := keyFiles(t, dir, p.ID); len(files) != 0 {
					t.Fatalf("program %s: the failed import left %v", p.Name, files)
				}
			}
			assertHivesEqual(t, fresh, dst, corpus)
			if err := dst.DurabilityError(); err != nil {
				t.Fatalf("the failed imports journaled: %v", err)
			}
			for _, p := range corpus {
				if err := dst.ImportProgram(chains[p.ID]); err != nil {
					t.Fatalf("program %s: the import retried: %v", p.Name, err)
				}
			}
			assertHivesEqual(t, want, dst, corpus)
			// What was imported is durable, and what the new owner's tree
			// learns from here on is journaled: the observer is armed.
			for _, p := range corpus {
				if _, err := dst.Guidance(p.ID, 64); err != nil {
					t.Fatal(err)
				}
			}
			if err := dstStore.Close(); err != nil {
				t.Fatal(err)
			}
			rebooted, store2 := newDurableHive(t, dir, corpus)
			defer store2.Close()
			assertRestored(t, dst, rebooted, corpus, acked)
		})
	}
}

// indexOf is the position of the program with the given ID in corpus.
func indexOf(corpus []*prog.Program, id string) int {
	for i, p := range corpus {
		if p.ID == id {
			return i
		}
	}
	return -1
}

// TestImportReplaysUnobserved: a chain with no base replays onto the tree the
// program was registered with, which on a durable hive the certificate
// observer watches. The replay's certificates are the chain's own: were they
// journaled again, an import that fails at its checkpoint would leave a
// journal behind in the directory (or, the disk full, a latched durability
// error). The observer is armed after the replay, as Recover arms it.
func TestImportReplaysUnobserved(t *testing.T) {
	corpus := recoveryCorpus(t, 1) // buildImplied's program: its proof mints a certificate
	p := corpus[0]
	ha, storeA := newDurableHive(t, t.TempDir(), corpus)
	defer storeA.Close()
	var seq uint64
	ackedFrames(t, ha, p, &seq, 4)
	if pr, err := ha.Prove(p.ID, proof.PropNoCrash); err != nil || pr.Certificates == 0 {
		t.Fatalf("proof: %+v, err %v; want a certificate minted", pr, err)
	}
	chain, err := storeA.ExportChain(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if chain.HasBase || len(chain.WAL) == 0 {
		t.Fatalf("fixture: want a journal-only chain, have base=%v and %d journal bytes", chain.HasBase, len(chain.WAL))
	}

	dirB := t.TempDir()
	ffs := faultfs.Wrap(nil, faultfs.Plan{})
	hb := newMemHive(t, corpus)
	storeB, err := journal.Open(dirB, journal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer storeB.Close()
	if err := hb.Recover(storeB); err != nil {
		t.Fatal(err)
	}
	ffs.ForceENOSPC(true)
	if err := hb.ImportProgram(chain); err == nil {
		t.Fatal("the import succeeded on a full disk")
	}
	ffs.ForceENOSPC(false)
	if err := hb.DurabilityError(); err != nil {
		t.Fatalf("the import journaled the chain's own certificates: %v", err)
	}
	if files := keyFiles(t, dirB, p.ID); len(files) != 0 {
		t.Fatalf("the failed import left %v", files)
	}
	if err := hb.ImportProgram(chain); err != nil {
		t.Fatal(err)
	}
	assertHivesEqual(t, ha, hb, corpus)
}

// TestVersion1EnvelopeRestoresByEveryRoute: the legacy fixtures (see
// legacyFixtures) restore by no route. Each refuses with
// journal.ErrUnknownVersion and leaves the fixture's files as they were: an
// export from the directory imported elsewhere (dead-hive takeover), a sync
// to the archive and an import from there (cold standby), and a reboot meant
// to checkpoint on top, where Recover refuses before any checkpoint runs.
func TestVersion1EnvelopeRestoresByEveryRoute(t *testing.T) {
	corpus := recoveryCorpus(t, 3)
	fixture := func(t *testing.T, name string) (string, map[string][]byte) {
		dir := t.TempDir()
		copyDir(t, filepath.Join("testdata", name), dir)
		return dir, dirFiles(t, dir)
	}
	// importEach imports every program's chain into a fresh durable hive,
	// each of which must be refused without leaving a file there.
	importEach := func(t *testing.T, name string, chain func(id string) (*journal.ChainExport, error)) {
		dst := t.TempDir()
		h, store := newDurableHive(t, dst, corpus)
		defer store.Close()
		for _, p := range corpus {
			c, err := chain(p.ID)
			if err != nil || c == nil {
				t.Fatalf("%s: chain of %s: %v (nil: %v)", name, p.Name, err, c == nil)
			}
			if err := h.ImportProgram(c); !errors.Is(err, journal.ErrUnknownVersion) {
				t.Errorf("%s: import of %s returned %v; want journal.ErrUnknownVersion", name, p.Name, err)
			}
			if files := keyFiles(t, dst, p.ID); len(files) != 0 {
				t.Errorf("%s: the refused import of %s left %v", name, p.Name, files)
			}
		}
	}
	routes := []struct {
		name    string
		refuses func(t *testing.T, fixture string)
	}{
		{"export and import", func(t *testing.T, name string) {
			dir, before := fixture(t, name)
			store, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			importEach(t, name, store.ExportChain)
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			assertRefusedIntact(t, name+": export and import", journal.ErrUnknownVersion, dir, before)
		}},
		{"archive", func(t *testing.T, name string) {
			dir, before := fixture(t, name)
			obj, err := archive.NewDirStore(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			store := openStore(t, dir, obj)
			if err := archive.New(store, obj, archive.Options{Writer: "legacy"}).SyncAll(); err != nil {
				t.Fatal(err)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			chains, _, err := ExportFromArchive(obj, "", corpus, "")
			if err != nil {
				t.Fatal(err)
			}
			importEach(t, name, func(id string) (*journal.ChainExport, error) { return chains[id], nil })
			assertRefusedIntact(t, name+": archive", journal.ErrUnknownVersion, dir, before)
		}},
		{"checkpoint on top", func(t *testing.T, name string) {
			dir, before := fixture(t, name)
			store, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			h := newMemHive(t, corpus)
			err = h.Recover(store)
			if err == nil {
				err = h.Checkpoint()
			}
			if cerr := store.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			assertRefusedIntact(t, name+": Recover", err, dir, before)
		}},
	}
	for _, route := range routes {
		t.Run(route.name, func(t *testing.T) {
			for _, name := range legacyFixtures {
				route.refuses(t, name)
			}
		})
	}
}
