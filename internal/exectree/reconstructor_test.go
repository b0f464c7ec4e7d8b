package exectree

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/memo"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/trace"
)

// reconCase is one trace and what the reference says about it.
type reconCase struct {
	name string
	tr   *trace.Trace
	want []trace.BranchEvent
	ok   bool
}

// reconCorpus generates one program with the given planted bug and a set of
// external-only traces over it: honest captures (triggering and benign
// inputs, several syscall environments) plus, for each, the ways a stream
// arrives wrong — a flipped direction, a stream cut short, a stream with an
// event too many, a recorded outcome the replay does not reach, a hostile
// step count. Every case carries Reconstruct's verdict, the reference.
func reconCorpus(t testing.TB, kind proggen.BugKind) (*prog.Program, []reconCase) {
	t.Helper()
	spec := proggen.Spec{
		Seed: 4200 + uint64(kind), Depth: 4, Loops: 1, Syscalls: 2, DetBranches: 6,
		Bugs: []proggen.BugKind{kind}, TriggerWidth: 32,
	}
	p, bugs, err := proggen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var cases []reconCase
	add := func(name string, tr *trace.Trace) {
		want, err := Reconstruct(p, tr)
		cases = append(cases, reconCase{name: name, tr: tr, want: want, ok: err == nil})
	}
	failures := 0
	for input := int64(0); input < 256; input += 5 {
		for env := uint64(1); env <= 3; env++ {
			col := trace.NewCollector(p, trace.CaptureExternalOnly, 0, 1)
			m, err := prog.NewMachine(p, prog.Config{
				Input:    []int64{input},
				Observer: col,
				Syscalls: &prog.DeterministicSyscalls{Seed: env<<8 | uint64(input)},
				MaxSteps: 1 << 12, // a planted hang stays cheap to replay
			})
			if err != nil {
				t.Fatal(err)
			}
			res := m.Run()
			tr := col.Finish("pod", uint64(len(cases)), res, []int64{input}, trace.PrivacyHashed, "s")
			if res.Outcome.IsFailure() {
				failures++
			}
			name := fmt.Sprintf("in=%d/env=%d", input, env)
			add(name, tr)
			if env != 1 || len(tr.Branches) == 0 {
				continue
			}
			flipped := tr.Clone()
			flipped.Branches[len(flipped.Branches)/2].Taken = !flipped.Branches[len(flipped.Branches)/2].Taken
			add(name+"/flipped", flipped)
			short := tr.Clone()
			short.Branches = short.Branches[:len(short.Branches)-1]
			add(name+"/exhausted", short)
			long := tr.Clone()
			long.Branches = append(long.Branches, long.Branches[0])
			add(name+"/unconsumed", long)
			other := tr.Clone()
			other.Outcome = prog.OutcomeAssertFail
			if tr.Outcome == prog.OutcomeAssertFail {
				other.Outcome = prog.OutcomeOK
			}
			add(name+"/outcome", other)
			hostile := tr.Clone()
			hostile.Steps = 1 << 60
			add(name+"/steps", hostile)
		}
	}
	if failures == 0 {
		t.Fatalf("bug %v (%+v) never triggered: the corpus would not cover its failing path", kind, bugs)
	}
	return p, cases
}

// viewOf encodes traces as one columnar frame and indexes it.
func viewOf(t testing.TB, traces ...*trace.Trace) *trace.BatchView {
	t.Helper()
	enc, err := trace.EncodeBatch(traces[0].ProgramID, traces)
	if err != nil {
		t.Fatal(err)
	}
	view, err := trace.DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// lookup asks r about one trace, shipped as a frame of its own.
func lookup(t testing.TB, r *Reconstructor, tr *trace.Trace) ([]trace.BranchEvent, bool) {
	t.Helper()
	view := viewOf(t, tr)
	defer view.Release()
	return r.View(view, 0)
}

var reconKinds = []proggen.BugKind{proggen.BugCrash, proggen.BugAssert, proggen.BugHang, proggen.BugSyscallCrash}

// check asserts one lookup's answer against the reference.
func (c reconCase) check(t testing.TB, how string, got []trace.BranchEvent, ok bool) {
	t.Helper()
	if ok != c.ok {
		t.Errorf("%s %s: ok = %v, Reconstruct says %v", how, c.name, ok, c.ok)
		return
	}
	if !ok {
		return
	}
	if len(got) != len(c.want) {
		t.Errorf("%s %s: %d events, Reconstruct gives %d", how, c.name, len(got), len(c.want))
		return
	}
	for i := range got {
		if got[i] != c.want[i] {
			t.Errorf("%s %s: event %d = %v, Reconstruct gives %v", how, c.name, i, got[i], c.want[i])
			return
		}
	}
}

// TestReconstructorMatchesReconstruct is the property the memo rests on: for
// every trace — honest, corrupt, exhausted, mismatched, hostile — the
// reconstructor answers exactly as Reconstruct does, on first sight and on
// every repeat, in a frame of its own and inside a batch alike, and failures
// are remembered like successes.
func TestReconstructorMatchesReconstruct(t *testing.T) {
	for _, kind := range reconKinds {
		p, cases := reconCorpus(t, kind)
		traces := make([]*trace.Trace, len(cases))
		okCount := 0
		for i, c := range cases {
			traces[i] = c.tr
			if c.ok {
				okCount++
			}
		}
		if okCount == 0 || okCount == len(cases) {
			t.Fatalf("kind %v: %d of %d cases reconstruct; want both verdicts covered", kind, okCount, len(cases))
		}
		view := viewOf(t, traces...)

		r := NewReconstructor(p)
		for i, c := range cases {
			got, ok := lookup(t, r, c.tr)
			c.check(t, "first sight", got, ok)
			got, ok = r.View(view, i)
			c.check(t, "batched repeat", got, ok)
			got, ok = lookup(t, r, c.tr)
			c.check(t, "repeat", got, ok)
		}
		view.Release()
		st := r.Stats()
		if st.Hits+st.Misses != int64(3*len(cases)) {
			t.Fatalf("kind %v: %d hits + %d misses, want %d lookups", kind, st.Hits, st.Misses, 3*len(cases))
		}
		// Each distinct key replays once; a trace's key is the same wherever
		// in whichever frame it sits, so two of every three lookups at least
		// are answered from memory — failures included.
		if st.Misses > int64(len(cases)) || st.Hits < int64(2*len(cases)) {
			t.Fatalf("kind %v: %d misses, %d hits over %d cases: repeats re-executed", kind, st.Misses, st.Hits, len(cases))
		}
		if st.ResidentBytes <= 0 || st.ResidentBytes > reconstructorBudget {
			t.Fatalf("kind %v: resident %d bytes outside (0, %d]", kind, st.ResidentBytes, reconstructorBudget)
		}
	}
}

// TestReconstructorEviction squeezes the memo into a budget a few dozen
// entries wide (memo.TestGenerations follows an entry through the two
// generations; this is what a caller sees of them): a reconstruction asked
// for between every other lookup is answered from memory however much else
// passes through — the working set survives rotation — one nobody asks for
// while the rest of the corpus passes through is replayed when it is asked
// for again, and every answer is the reference's with residency inside the
// budget.
func TestReconstructorEviction(t *testing.T) {
	const budget = 16 << 10
	p, cases := reconCorpus(t, proggen.BugCrash)
	r := NewReconstructor(p)
	r.memo = memo.New[reconstruction](budget)
	c0, rest := cases[0], cases[1:]
	lookupOthers := func(between func()) {
		t.Helper()
		for _, c := range rest {
			got, ok := lookup(t, r, c.tr)
			c.check(t, "filling", got, ok)
			if st := r.Stats(); st.ResidentBytes > budget {
				t.Fatalf("resident %d bytes, budget %d", st.ResidentBytes, budget)
			}
			between()
		}
	}

	got, ok := lookup(t, r, c0.tr)
	c0.check(t, "first sight", got, ok)
	lookupOthers(func() {
		before := r.Stats()
		got, ok := lookup(t, r, c0.tr)
		c0.check(t, "kept warm", got, ok)
		if st := r.Stats(); st.Hits != before.Hits+1 || st.Misses != before.Misses {
			t.Fatalf("lookup of a warm entry: hits %d -> %d, misses %d -> %d; want one hit", before.Hits, st.Hits, before.Misses, st.Misses)
		}
	})

	// The same corpus again with c0 left alone: that it is gone afterwards
	// also shows the pass above rotated under the warm entry.
	lookupOthers(func() {})
	before := r.Stats()
	got, ok = lookup(t, r, c0.tr)
	c0.check(t, "after eviction", got, ok)
	if st := r.Stats(); st.Misses != before.Misses+1 {
		t.Fatalf("lookup after the corpus passed through: misses %d -> %d; want one replay", before.Misses, st.Misses)
	}
}

// TestReconstructorConcurrent hammers one tightly budgeted reconstructor
// from several goroutines at once (run under -race), so lookups, stores,
// promotions and rotations interleave: every answer is still the
// reference's and residency stays inside the budget.
func TestReconstructorConcurrent(t *testing.T) {
	for _, kind := range reconKinds {
		p, cases := reconCorpus(t, kind)
		const budget = 16 << 10
		r := NewReconstructor(p)
		r.memo = memo.New[reconstruction](budget)
		traces := make([]*trace.Trace, len(cases))
		for i, c := range cases {
			traces[i] = c.tr
		}
		view := viewOf(t, traces...) // only read from here on
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range cases {
					i := (k*7 + g*13) % len(cases)
					for again := 0; again < 2; again++ {
						got, ok := r.View(view, i)
						cases[i].check(t, "concurrent", got, ok)
					}
				}
			}(g)
		}
		wg.Wait()
		view.Release()
		if st := r.Stats(); st.ResidentBytes > budget || st.Hits+st.Misses != int64(8*len(cases)) {
			t.Fatalf("kind %v: resident %d bytes (budget %d), %d hits + %d misses over %d lookups",
				kind, st.ResidentBytes, budget, st.Hits, st.Misses, 8*len(cases))
		}
	}
}

// TestReconstructFuelClamped pins the bound on what a recorded step count —
// an unvalidated number off the wire — can buy: never more replay than twice
// the fuel pods themselves run under, at any claimed value, and no overflow
// into "unlimited". A hung execution claiming 2^60 steps reconstructs in
// bounded time (this test finishing is the assertion).
func TestReconstructFuelClamped(t *testing.T) {
	const limit = 2*prog.DefaultMaxSteps + 1024
	for _, steps := range []int64{prog.DefaultMaxSteps, prog.DefaultMaxSteps + 1, 1 << 60, 1 << 62, math.MaxInt64} {
		if got := reconstructFuel(steps); got != limit {
			t.Errorf("reconstructFuel(%d) = %d, want the clamp %d", steps, got, limit)
		}
	}
	if got := reconstructFuel(100); got != 1224 {
		t.Errorf("reconstructFuel(100) = %d, want 1224 (honest counts keep their 2x+1024 headroom)", got)
	}
	for _, steps := range []int64{0, -1, math.MinInt64} {
		if got := reconstructFuel(steps); got != prog.DefaultMaxSteps {
			t.Errorf("reconstructFuel(%d) = %d, want the default %d", steps, got, prog.DefaultMaxSteps)
		}
	}

	p, cases := reconCorpus(t, proggen.BugHang)
	hung := 0
	for _, c := range cases {
		if c.tr.Outcome != prog.OutcomeHang || c.tr.Steps != 1<<60 {
			continue
		}
		hung++
		if !c.ok {
			t.Fatalf("%s: a hang claiming 2^60 steps did not reconstruct", c.name)
		}
		got, ok := lookup(t, NewReconstructor(p), c.tr)
		c.check(t, "hostile steps", got, ok)
	}
	if hung == 0 {
		t.Fatal("corpus holds no hung execution with a hostile step count")
	}
}
