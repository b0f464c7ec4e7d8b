package hive

// Certificate journaling tests: a live infeasibility certificate takes the
// road every other mutation takes — journaled under the checkpoint gate,
// applied after — so the tree's lock is never held across the append, a
// certificate the journal refuses is not applied, and a kill between the
// append and the apply loses nothing.

import (
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exectree"
	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/prog"
	"repro/internal/proof"
	"repro/internal/trace"
)

// stallFS is a journal.FS whose files, once armed, stop in Sync: each Sync
// announces itself on entered and waits for release to close. A journal
// opened on it with Fsync on has written the group's records when it stops.
type stallFS struct {
	journal.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newStallFS() *stallFS {
	// entered is buffered for every Sync a test can provoke while armed.
	return &stallFS{FS: journal.OSFS(), entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (s *stallFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &stallFile{File: f, fs: s}, nil
}

type stallFile struct {
	journal.File
	fs *stallFS
}

func (f *stallFile) Sync() error {
	if f.fs.armed.Load() {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// twoDeadHive boots a durable hive for buildTwoDead on fs, seeded with the two
// executions that leave three frontiers open: two refutable, one feasible.
func twoDeadHive(t *testing.T, dir string, fs journal.FS) (*Hive, *journal.Store, *prog.Program) {
	t.Helper()
	p := buildTwoDead(t)
	h := New("fleet")
	h.Logf = func(string, ...any) {}
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	store, err := journal.Open(dir, journal.Options{Fsync: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	if err := h.Recover(store); err != nil {
		t.Fatal(err)
	}
	for i, x := range []int64{0, 201} {
		seq := uint64(i + 1)
		tr := captureSeqTrace(t, p, "pod-c", seq, []int64{x}, trace.PrivacyHashed)
		if dup, err := submitSession(t, h, "seed", seq, p.ID, []*trace.Trace{tr}); err != nil || dup {
			t.Fatalf("seed %d: dup=%v err=%v", x, dup, err)
		}
	}
	tree := h.liveTree(p.ID)
	if n := tree.FrontierCount(); n != 3 {
		t.Fatalf("fixture: %d open frontiers, want 3", n)
	}
	return h, store, p
}

// deadOpen counts the open frontiers under x > 200, the two a solver refutes.
func deadOpen(tree *exectree.Tree) int {
	n := 0
	for _, f := range tree.Frontiers(8) {
		if len(f.Prefix) > 0 && f.Prefix[0].Taken {
			n++
		}
	}
	return n
}

// within runs fn on its own goroutine and fails the test if it has not
// returned in five seconds; it reports whether fn returned.
func within(t *testing.T, what string, fn func()) bool {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		t.Errorf("%s waited on a certificate's journal append", what)
		return false
	}
}

// TestCertificateAppendHoldsNoTreeLock: while a certificate's append is stuck
// in fsync — minted by a guidance pull, minted by a proof attempt — the same
// program's tree takes a merge and answers a frontier scan, and does not hold
// the certificate yet; a hive recovered from the directory as the kill would
// leave it there does. The certificate used to be applied first and journaled
// from an observer the tree called under its write lock.
func TestCertificateAppendHoldsNoTreeLock(t *testing.T) {
	engines := map[string]func(h *Hive, p *prog.Program){
		"Guidance": func(h *Hive, p *prog.Program) { _, _ = h.Guidance(p.ID, 4) },
		"Prove":    func(h *Hive, p *prog.Program) { _, _ = h.Prove(p.ID, proof.PropNoCrash) },
	}
	for name, mint := range engines {
		t.Run(name, func(t *testing.T) {
			fs := newStallFS()
			dir := t.TempDir()
			h, _, p := twoDeadHive(t, dir, fs)
			tree := h.liveTree(p.ID)
			path := captureSeqTrace(t, p, "pod-c", 3, []int64{0}, trace.PrivacyHashed).Branches

			fs.armed.Store(true)
			minted := make(chan struct{})
			go func() { defer close(minted); mint(h, p) }()
			select {
			case <-fs.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("no certificate reached the journal")
			}

			// The record is written, its fsync outstanding, the apply not yet
			// made: what a kill here leaves behind.
			dead := -1
			ok := within(t, "a merge", func() { tree.Merge(path, prog.OutcomeOK) }) &&
				within(t, "a frontier scan", func() { dead = deadOpen(tree) })
			killed := t.TempDir()
			copyDir(t, dir, killed)
			fs.armed.Store(false)
			close(fs.release)
			<-minted
			if !ok {
				return
			}
			if dead != 2 {
				t.Fatalf("%d refutable frontiers open while the first certificate's append is in flight, want 2: applied before it was journaled", dead)
			}
			if n := tree.FrontierCount(); n > 1 {
				t.Fatalf("%d open frontiers once the appends returned, want both refuted ones certified", n)
			}

			recovered, store2 := newDurableHive(t, killed, []*prog.Program{p})
			defer store2.Close()
			rtree := recovered.liveTree(p.ID)
			if n := deadOpen(rtree); n != 1 {
				t.Fatalf("hive recovered from a kill between append and apply has %d refutable frontiers open, want 1 (the journaled certificate applied)", n)
			}
		})
	}
}

// TestRefusedCertificateStaysOpen: with the journal refusing appends, a
// refuted frontier is not certified — the tree never runs ahead of its
// journal — each refusal counts toward the read-only breaker like a refused
// batch, nothing is latched as a durability error because nothing was lost,
// and once a checkpoint lands the next pull certifies the frontier, journaled
// once.
func TestRefusedCertificateStaysOpen(t *testing.T) {
	ffs := faultfs.Wrap(nil, faultfs.Plan{})
	h, store, p := twoDeadHive(t, t.TempDir(), ffs)
	if err := h.CheckpointProgram(p.ID); err != nil {
		t.Fatal(err)
	}
	tree, _ := h.Tree(p.ID)
	st, err := h.state(p.ID)
	if err != nil {
		t.Fatal(err)
	}

	ffs.ForceENOSPC(true)
	cases, err := h.Guidance(p.ID, 4)
	if err != nil || len(cases) != 1 {
		t.Fatalf("pull on a full disk: %d cases, err %v; want the one feasible case", len(cases), err)
	}
	if n := tree.FrontierCount(); n != 3 {
		t.Fatalf("%d open frontiers after a pull whose certificates the journal refused, want 3", n)
	}
	if n := st.appendFails.Load(); n != 2 {
		t.Fatalf("breaker counted %d failed appends, want the 2 refused certificates", n)
	}
	if _, err := h.Guidance(p.ID, 4); err != nil {
		t.Fatal(err)
	}
	if !h.ProgramReadOnly(p.ID) {
		t.Fatalf("breaker still closed after %d refused certificates", readOnlyAppendThreshold)
	}
	if err := h.DurabilityError(); err != nil {
		t.Fatalf("a certificate that was never applied degraded durability: %v", err)
	}

	// The disk recovers. Nothing has changed since the last checkpoint — the
	// refusals left no trace — and the checkpoint must land all the same, or
	// the breaker would never close.
	ffs.ForceENOSPC(false)
	if err := h.CheckpointProgram(p.ID); err != nil {
		t.Fatal(err)
	}
	if h.ProgramReadOnly(p.ID) {
		t.Fatal("checkpoint landed but the breaker is still open")
	}
	if _, err := h.Guidance(p.ID, 4); err != nil {
		t.Fatal(err)
	}
	if n := tree.FrontierCount(); n != 1 {
		t.Fatalf("%d open frontiers after a pull on a healthy disk, want 1", n)
	}
	if n := journaledCerts(t, store, p.ID); n != 2 {
		t.Fatalf("%d certificates journaled, want 2", n)
	}
}
