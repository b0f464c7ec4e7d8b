package hive

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
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
// sessions each span every program; every fifth sequence number is held
// back, so checkpoints catch applied marks above a gap, and half of those
// arrive late. A clean program is proved between checkpoints (evidence and
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
	phase := func(frames int) {
		for r := 0; r < frames; r++ {
			for pi, p := range corpus {
				f := sessionFrame{session: fmt.Sprintf("sess-%d", (r+pi)%3), program: p}
				next[f.session]++
				f.seq = next[f.session]
				for j := 0; j < 4; j++ {
					input := make([]int64, p.NumInputs)
					for k := range input {
						input[k] = rng.Int63n(impliedBound)
					}
					f.batch = append(f.batch, captureSeqTrace(t, p, fmt.Sprintf("pod-%d", r%4), f.seq*4+uint64(j), input, trace.PrivacyHashed))
				}
				if f.seq%5 == 0 {
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

	phase(6)
	checkpoint() // base
	phase(6)
	prove(corpus[1])
	checkpoint() // delta 1
	for i, f := range held {
		if i%2 == 0 {
			submit(f)
		}
	}
	phase(6)
	checkpoint() // delta 2
	phase(4)
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

// TestRecoverVersion1Chain: testdata/chain-v1 is the directory
// buildRecoveryDir wrote for recoveryCorpus(3) at the last commit whose
// delta segments were version 1 (every entry a whole root path). It must
// recover to the hive that builds the same directory today, whose own
// segments are version 2 and smaller. That commit also still journaled
// per-trace OpBatch records for half the frames; nothing writes them any
// more, so this fixture is what keeps their replay pinned.
func TestRecoverVersion1Chain(t *testing.T) {
	corpus := recoveryCorpus(t, 3)
	cur := t.TempDir()
	want, acked := buildRecoveryDir(t, cur, corpus)

	old := t.TempDir()
	copyDir(t, filepath.Join("testdata", "chain-v1"), old)
	oldBytes := treeDeltaBytes(t, old, corpus, 1)
	curBytes := treeDeltaBytes(t, cur, corpus, 2)
	if curBytes*2 > oldBytes {
		t.Errorf("version 2 segments hold %d B of tree, version 1 held %d B; want at most half", curBytes, oldBytes)
	}

	if n := countOps(t, old, corpus, journal.OpBatch); n == 0 {
		t.Fatal("the fixture's journal suffix holds no OpBatch record: the legacy replay is not exercised")
	}
	if n := countOps(t, cur, corpus, journal.OpBatch); n != 0 {
		t.Fatalf("today's hive journaled %d OpBatch records; want OpBatchColumnar only", n)
	}

	got, store := newDurableHive(t, old, corpus)
	defer store.Close()
	assertHivesEqual(t, want, got, corpus)
	assertSessionsAnswerAlike(t, got, acked)
}

// countOps counts the journal-suffix records of one kind in dir, over every
// program of corpus.
func countOps(t *testing.T, dir string, corpus []*prog.Program, kind journal.Kind) int {
	t.Helper()
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	n := 0
	for _, p := range corpus {
		if _, err := store.Replay(p.ID, func(r journal.Receipt) error {
			op := r.Op()
			if op.Kind == kind {
				n++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// treeDeltaBytes sums TreeDelta over the delta segments in dir, each of
// which must be of the given version.
func treeDeltaBytes(t *testing.T, dir string, corpus []*prog.Program, version byte) int {
	t.Helper()
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	total := 0
	for _, p := range corpus {
		_, deltas, err := store.LoadChain(p.ID)
		if err != nil || len(deltas) == 0 {
			t.Fatalf("%s: program %s: %d delta segments, err %v", dir, p.Name, len(deltas), err)
		}
		for i, d := range deltas {
			if !bytes.HasPrefix(d.TreeDelta, []byte{version}) {
				t.Fatalf("%s: program %s: delta %d is version %d, want %d", dir, p.Name, i, d.TreeDelta[0], version)
			}
			total += len(d.TreeDelta)
		}
	}
	return total
}
