package hive

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/journal"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/proof"
	"repro/internal/stats"
	"repro/internal/trace"
)

// recoveryCorpus generates n-1 deterministic programs, buggy (crash fix
// synthesis, failure tables) and clean (provable) by turns, and ends with
// buildImplied's.
func recoveryCorpus(t testing.TB, n int) []*prog.Program {
	t.Helper()
	corpus := make([]*prog.Program, n)
	for i := range corpus[:n-1] {
		spec := proggen.Spec{Seed: uint64(7001 + i), Depth: 6, Loops: 1, DetBranches: 8, NumInputs: 2}
		if i%2 == 0 {
			spec.TriggerWidth = 24
			spec.Bugs = []proggen.BugKind{proggen.BugCrash}
		}
		p, _, err := proggen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		corpus[i] = p
	}
	corpus[n-1] = buildImplied()
	return corpus
}

// impliedBound is where buildImplied's program branches. buildRecoveryDir
// draws every input below it, so the first execution to take the branch is
// one a proof attempt synthesizes.
const impliedBound = 200

// buildImplied returns a program whose inner branch is decided by its outer
// one: an input at or above impliedBound is also above half of it. A proof
// attempt on a tree that has only seen smaller inputs merges the outer
// branch as evidence and then certifies the inner branch's other direction
// on the node that evidence created — a certificate journaled ahead of the
// OpProof that carries the evidence, which replay has to defer.
func buildImplied() *prog.Program {
	b := prog.NewBuilder("implied", 1)
	hi, end := b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpGE, impliedBound, hi)
	b.Jmp(end)
	b.Bind(hi)
	b.BrImm(0, prog.CmpGE, impliedBound/2, end)
	b.Bind(end)
	b.Halt()
	return b.MustBuild()
}

// sessionFrame is one sessioned batch a hive was sent.
type sessionFrame struct {
	session string
	seq     uint64
	program *prog.Program
	batch   []*trace.Trace
}

// buildRecoveryDir leaves in dir what a killed hive leaves: for every
// program a base snapshot, two delta segments and a journal suffix. Three
// sessions each span every program; after the base, every fifth sequence
// number is held back, so checkpoints catch applied marks above a gap, and
// half of those held before the first delta arrive late. A clean program is proved between checkpoints (evidence and
// certificates folded into a segment) and the others after the last one
// (OpCert and OpProof in the suffix, the implied program's certificate on a
// node its own evidence creates). It returns the hive that wrote the
// directory, its journal closed, and every frame that hive acknowledged.
func buildRecoveryDir(t testing.TB, dir string, corpus []*prog.Program) (*Hive, []sessionFrame) {
	t.Helper()
	h, store := newDurableHive(t, dir, corpus)
	rng := stats.NewRNG(17)
	var acked, held []sessionFrame
	next := map[string]uint64{}
	submit := func(f sessionFrame) {
		dup, err := submitSession(t, h, f.session, f.seq, f.program.ID, f.batch)
		if err != nil || dup {
			t.Fatalf("%s/%d: dup=%v err=%v", f.session, f.seq, dup, err)
		}
		acked = append(acked, f)
	}
	// phase sends rounds frames of traces traces (at most 16) to every
	// program. A holding phase holds back every fifth sequence number.
	phase := func(rounds, traces int, hold bool) {
		for r := 0; r < rounds; r++ {
			for pi, p := range corpus {
				f := sessionFrame{session: fmt.Sprintf("sess-%d", (r+pi)%3), program: p}
				next[f.session]++
				f.seq = next[f.session]
				for j := 0; j < traces; j++ {
					input := make([]int64, p.NumInputs)
					for k := range input {
						input[k] = rng.Int63n(impliedBound)
					}
					f.batch = append(f.batch, captureSeqTrace(t, p, fmt.Sprintf("pod-%d", r%4), f.seq*16+uint64(j), input, trace.PrivacyHashed))
				}
				if hold && f.seq%5 == 0 {
					held = append(held, f)
					continue
				}
				submit(f)
			}
		}
	}
	checkpoint := func() {
		if err := h.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	prove := func(p *prog.Program) *proof.Proof {
		pr, err := h.Prove(p.ID, proof.PropNoCrash)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}

	// The base holds a grown tree, and the passes between checkpoints touch
	// few of its nodes, so the chain keeps its deltas (a checkpoint writes a
	// base once its deltas would re-state half the tree).
	phase(25, 16, false)
	checkpoint() // base
	phase(2, 1, true)
	prove(corpus[1])
	checkpoint() // delta 1
	for i, f := range held {
		if i%2 == 0 {
			submit(f)
		}
	}
	phase(2, 1, true)
	checkpoint() // delta 2
	phase(4, 4, true)
	for i := 3; i < len(corpus)-1; i += 2 {
		prove(corpus[i])
	}
	if pr := prove(corpus[len(corpus)-1]); !pr.Complete || len(pr.Evidence) != 1 || pr.Certificates != 1 {
		t.Fatalf("implied program: complete=%v with %d evidence paths and %d certificates; want one certificate under one evidence path", pr.Complete, len(pr.Evidence), pr.Certificates)
	}
	fixes := 0
	for _, p := range corpus {
		st, err := h.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		fixes += st.FixCount
	}
	if fixes == 0 {
		t.Fatal("traffic minted no fix")
	}
	if err := h.DurabilityError(); err != nil {
		t.Fatal(err)
	}
	for _, p := range corpus {
		if n := chainLength(t, store, p.ID); n != 2 {
			t.Fatalf("program %s: %d delta segments, want 2", p.ID, n)
		}
		if n := store.AppendsSinceCheckpoint(p.ID); n == 0 {
			t.Fatalf("program %s: empty journal suffix", p.ID)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return h, acked
}

// copyDir copies the files of a flat directory.
func copyDir(t testing.TB, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// assertSessionsAnswerAlike resubmits every acknowledged frame, which must
// be a duplicate, and then the next sequence number of each session, which
// must not be.
func assertSessionsAnswerAlike(t *testing.T, h *Hive, acked []sessionFrame) {
	t.Helper()
	last := map[string]sessionFrame{}
	for _, f := range acked {
		dup, err := submitSession(t, h, f.session, f.seq, f.program.ID, f.batch)
		if err != nil || !dup {
			t.Errorf("acknowledged frame %s/%d: dup=%v err=%v, want a duplicate", f.session, f.seq, dup, err)
		}
		if f.seq > last[f.session].seq {
			last[f.session] = f
		}
	}
	for _, f := range last {
		dup, err := submitSession(t, h, f.session, f.seq+1, f.program.ID, f.batch)
		if err != nil || dup {
			t.Errorf("fresh frame %s/%d: dup=%v err=%v, want it applied", f.session, f.seq+1, dup, err)
		}
	}
}

// TestRecoverParallelEqualsSerial: a data directory of eight programs
// recovered by one, two and eight workers gives the hive that wrote it —
// program stats, tree stats, frontier sets, failure tables, fixes, proofs —
// and a session table that answers every resubmission the same way.
func TestRecoverParallelEqualsSerial(t *testing.T) {
	corpus := recoveryCorpus(t, 8)
	src := t.TempDir()
	want, acked := buildRecoveryDir(t, src, corpus)
	wantBases, wantAhead := want.sessionSnapshot()
	if len(wantAhead) == 0 {
		t.Fatal("no session has applied marks above a gap; the fixture would not test their merge")
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		dir := t.TempDir()
		copyDir(t, src, dir)
		got, store := newDurableHive(t, dir, corpus)
		assertHivesEqual(t, want, got, corpus)
		for _, p := range corpus {
			wt, _ := want.Tree(p.ID)
			gt, _ := got.Tree(p.ID)
			if !reflect.DeepEqual(wt.Stats(), gt.Stats()) {
				t.Errorf("GOMAXPROCS=%d: program %s: tree stats\n want %+v\n  got %+v", procs, p.Name, wt.Stats(), gt.Stats())
			}
		}
		bases, ahead := got.sessionSnapshot()
		if !reflect.DeepEqual(bases, wantBases) || !reflect.DeepEqual(ahead, wantAhead) {
			t.Errorf("GOMAXPROCS=%d: session table\n want %v %v\n  got %v %v", procs, wantBases, wantAhead, bases, ahead)
		}
		assertSessionsAnswerAlike(t, got, acked)
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			t.Fatalf("GOMAXPROCS=%d: recovered hive differs from the source", procs)
		}
	}
}

// TestRecoverErrorIsLowestProgram: with two programs' chains corrupt, the
// error Recover returns is the one a serial pass meets first — the lower
// program ID's — however the workers interleave.
func TestRecoverErrorIsLowestProgram(t *testing.T) {
	corpus := recoveryCorpus(t, 8)
	src := t.TempDir()
	buildRecoveryDir(t, src, corpus)

	ids := make([]string, len(corpus))
	for i, p := range corpus {
		ids[i] = p.ID
	}
	sort.Strings(ids)
	low, high := ids[2], ids[6]
	for _, id := range []string{low, high} {
		files, err := filepath.Glob(filepath.Join(src, "delta-"+journal.FileKey(id)+"-*.snap"))
		if err != nil || len(files) == 0 {
			t.Fatalf("program %s: delta segments %v, err %v", id, files, err)
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(files[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8, 8, 8} {
		runtime.GOMAXPROCS(procs)
		h := New("fleet")
		for _, p := range corpus {
			if err := h.RegisterProgram(p); err != nil {
				t.Fatal(err)
			}
		}
		store, err := journal.Open(src, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		err = h.Recover(store)
		if cerr := store.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err == nil || !strings.Contains(err.Error(), journal.FileKey(low)) {
			t.Fatalf("GOMAXPROCS=%d: Recover returned %v; want the corrupt segment of %s (%s)", procs, err, low, journal.FileKey(low))
		}
	}
}

// legacyFixtures are data directories that buildRecoveryDir wrote for
// recoveryCorpus(3) at earlier commits, in formats this build does not read.
// chain-v1 is from the last commit whose segments were envelope version 1
// with delta version 1 inside, and which journaled half its frames as
// per-trace batch records (op kind 1). chain-v2 is from the last commit that
// wrote envelope version 2, whose failure samples were per-trace encodings.
// chain-v3 is from the last commit that wrote envelope version 3, whose state
// after the tree fields was JSON. chain-v4 is from the last commit that wrote
// envelope version 4 and op version 1, whose fixes and proofs were JSON: its
// books hold a fix, and its journal suffixes an OpSynthesis with a minted fix
// (after buildRecoveryDir, a reboot ingested one crash reported at a fault
// site no fix covered) and an OpProof. Every journal has a current header, so
// Open names every program and refusal falls to whatever reads a segment or
// a record.
var legacyFixtures = []string{"chain-v1", "chain-v2", "chain-v3", "chain-v4"}

// dirFiles reads every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// assertRefusedIntact fails unless err is journal.ErrUnknownVersion and dir
// still holds exactly the files and bytes of before.
func assertRefusedIntact(t *testing.T, what string, err error, dir string, before map[string][]byte) {
	t.Helper()
	if !errors.Is(err, journal.ErrUnknownVersion) {
		t.Errorf("%s returned %v; want journal.ErrUnknownVersion", what, err)
	}
	if !reflect.DeepEqual(dirFiles(t, dir), before) {
		t.Errorf("%s changed the data directory it refused", what)
	}
}

// TestRecoverVersion1Chain: a reboot over testdata/chain-v1 — or chain-v2,
// chain-v3 or chain-v4, see legacyFixtures — refuses with journal.ErrUnknownVersion and leaves
// every file as it was. chain-v1's per-trace batch records are refused by the
// journal replay on its own too.
func TestRecoverVersion1Chain(t *testing.T) {
	corpus := recoveryCorpus(t, 3)
	for _, fixture := range legacyFixtures {
		dir := t.TempDir()
		copyDir(t, filepath.Join("testdata", fixture), dir)
		before := dirFiles(t, dir)
		store, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatalf("%s: %v", fixture, err)
		}
		err = newMemHive(t, corpus).Recover(store)
		assertRefusedIntact(t, fixture+": Recover", err, dir, before)

		refused := 0
		for _, p := range corpus {
			_, err := store.Replay(p.ID, func(journal.Receipt) error { return nil })
			switch {
			case errors.Is(err, journal.ErrUnknownVersion):
				refused++
			case err != nil:
				t.Errorf("%s: program %s: replay: %v", fixture, p.Name, err)
			}
		}
		if fixture == "chain-v1" && refused == 0 {
			t.Error("chain-v1: no journal refused a per-trace batch record: the fixture no longer holds one")
		}
		if fixture == "chain-v4" && refused != len(corpus) {
			t.Errorf("chain-v4: %d of %d journals refused their version 1 records", refused, len(corpus))
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		assertRefusedIntact(t, fixture+": Replay", journal.ErrUnknownVersion, dir, before)
	}
}

// readSpy is a journal.FS that keeps, for each file, the buffer the last
// open of it for reading was read into, to its capacity.
type readSpy struct {
	journal.FS
	mu   sync.Mutex
	bufs map[string][]byte
}

func (s *readSpy) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil || flag != os.O_RDONLY {
		return f, err
	}
	return &spyFile{File: f, spy: s, name: filepath.Base(name)}, nil
}

func (s *readSpy) buf(name string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bufs[name]
}

type spyFile struct {
	journal.File
	spy  *readSpy
	name string
	read bool
}

func (f *spyFile) Read(p []byte) (int, error) {
	if !f.read {
		f.read = true
		f.spy.mu.Lock()
		f.spy.bufs[f.name] = p[:cap(p)]
		f.spy.mu.Unlock()
	}
	return f.File.Read(p)
}

// TestRecoveredStateKeepsNoJournalBytes pins the rule Store.Replay's reused
// read buffer relies on: nothing a replay applies keeps a slice of the record
// bytes. A program is recovered from a journal of sessioned external-only
// frames, crashes and raw-privacy inputs among them; then a second program's
// journal is replayed into the same buffer, and the whole buffer is written
// over. The first program's tree, session marks, failure samples, known-good
// inputs and reconstructor memo must not move.
func TestRecoveredStateKeepsNoJournalBytes(t *testing.T) {
	// One P: the pool hands a Replay the buffer the last one put back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := growableCorpus(t)[0]
	b := buildImplied()
	corpus := []*prog.Program{a, b}
	dir := t.TempDir()
	h, store := newDurableHive(t, dir, corpus)
	capture := func(p *prog.Program, input []int64, privacy trace.PrivacyLevel) *trace.Trace {
		col := trace.NewCollector(p, trace.CaptureExternalOnly, 0, 1)
		m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
		if err != nil {
			t.Fatal(err)
		}
		return col.Finish("pod-a", 0, m.Run(), input, privacy, "fleet")
	}
	rng := stats.NewRNG(5)
	var frames [][]*trace.Trace
	for i := 0; i < 40; i++ {
		var batch []*trace.Trace
		for j := 0; j < 8; j++ {
			privacy := trace.PrivacyHashed
			if j == 0 {
				privacy = trace.PrivacyRaw
			}
			batch = append(batch, capture(a, []int64{rng.Int63n(256), rng.Int63n(256)}, privacy))
		}
		frames = append(frames, batch)
		if dup, err := submitSession(t, h, "sess-a", uint64(i+1), a.ID, batch); err != nil || dup {
			t.Fatalf("frame %d: dup=%v err=%v", i, dup, err)
		}
	}
	if dup, err := submitSession(t, h, "sess-b", 1, b.ID, []*trace.Trace{capture(b, []int64{5}, trace.PrivacyHashed)}); err != nil || dup {
		t.Fatalf("program b: dup=%v err=%v", dup, err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	wal := func(p *prog.Program) string { return fmt.Sprintf("wal-%s-0.log", journal.FileKey(p.ID)) }

	// Under the race detector the pool drops a quarter of what it is handed,
	// so the buffer a's recovery read into may be gone; recover again until
	// b's replay gets it.
	for attempt := 0; ; attempt++ {
		spy := &readSpy{FS: journal.OSFS(), bufs: map[string][]byte{}}
		h := New("fleet")
		for _, p := range corpus {
			if err := h.RegisterProgram(p); err != nil {
				t.Fatal(err)
			}
		}
		store, err := journal.Open(dir, journal.Options{FS: spy})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Recover(store); err != nil {
			t.Fatal(err)
		}
		bufA := spy.buf(wal(a))
		st, _ := h.state(a.ID)
		tree := st.tree.Encode()
		meta, err := h.snapshotProgramMeta(st)
		if err != nil {
			t.Fatal(err)
		}
		recon := func() (paths [][]trace.BranchEvent, misses int64) {
			for _, batch := range frames {
				view := viewOf(t, a.ID, batch)
				for i := 0; i < view.Len(); i++ {
					path, ok := st.recon.View(view, i)
					if !ok {
						t.Fatalf("trace %d of a frame does not reconstruct", i)
					}
					paths = append(paths, append([]trace.BranchEvent(nil), path...))
				}
				view.Release()
			}
			return paths, st.recon.Stats().Misses
		}
		paths, misses := recon()

		if n, err := store.Replay(b.ID, func(journal.Receipt) error { return nil }); err != nil || n != 1 {
			t.Fatalf("replay of b: %d ops, err %v", n, err)
		}
		bufB := spy.buf(wal(b))
		if len(bufA) == 0 || len(bufB) == 0 || &bufA[0] != &bufB[0] {
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			if attempt < 20 {
				continue
			}
			t.Fatal("b's replay never read into the buffer a's was read into")
		}
		for i := range bufB {
			bufB[i] = 0xa5
		}

		if got := st.tree.Encode(); !bytes.Equal(got, tree) {
			t.Error("a's tree changed under the scribble")
		}
		got, err := h.snapshotProgramMeta(st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, meta) {
			t.Error("a's session marks, failure samples or known-good inputs changed under the scribble")
		}
		gotPaths, gotMisses := recon()
		if gotMisses != misses || !reflect.DeepEqual(gotPaths, paths) {
			t.Errorf("a's reconstructor memo changed under the scribble: %d misses after, %d before", gotMisses, misses)
		}
		if len(meta.Failures) == 0 || len(meta.KnownGood) == 0 || len(meta.Sessions) == 0 {
			t.Errorf("fixture: a recovered %d failure records, %d known-good inputs and %d sessions; want some of each", len(meta.Failures), len(meta.KnownGood), len(meta.Sessions))
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		return
	}
}
