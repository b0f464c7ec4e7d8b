package guidance

import (
	"reflect"
	"testing"

	"repro/internal/exectree"
	"repro/internal/memo"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/symbolic"
)

// buildEnvCrash crashes when a syscall returns > 50: unreachable by input
// steering, reachable via fault injection.
func buildEnvCrash(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("envcrash", 1)
	bad, end := b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.Syscall(1, 7, 0)
	b.BrImm(1, prog.CmpGT, 50, bad)
	b.Jmp(end)
	b.Bind(bad)
	b.Const(2, 0)
	b.Div(3, 2, 2)
	b.Bind(end)
	b.Halt()
	return b.MustBuild()
}

func seedTree(t *testing.T, p *prog.Program, inputs ...int64) *exectree.Tree {
	t.Helper()
	tree := exectree.New(p.ID)
	sym, err := symbolic.New(p, symbolic.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range inputs {
		in := make([]int64, p.NumInputs)
		if len(in) > 0 {
			in[0] = v
		}
		path, err := sym.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		tree.Merge(path.Events(), path.Outcome)
	}
	return tree
}

func TestInputGuidanceTargetsFrontier(t *testing.T) {
	// if x > 100 {...}: seeding with small inputs leaves the taken side
	// unexplored; guidance must produce an input > 100.
	b := prog.NewBuilder("gap", 1)
	hi, end := b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpGT, 100, hi)
	b.Jmp(end)
	b.Bind(hi)
	b.Const(1, 1)
	b.Bind(end)
	b.Halt()
	p := b.MustBuild()

	tree := seedTree(t, p, 1, 2, 3)
	g, err := NewGenerator(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := g.Generate(tree, 4)
	if len(cases) == 0 {
		t.Fatal("no guidance produced")
	}
	found := false
	for _, tc := range cases {
		if len(tc.Input) > 0 && tc.Input[0] > 100 {
			found = true
		}
		if tc.ProgramID != p.ID {
			t.Errorf("test case bound to %s", tc.ProgramID)
		}
	}
	if !found {
		t.Errorf("no test case targets the gap: %+v", cases)
	}
}

func TestFaultInjectionGuidance(t *testing.T) {
	p := buildEnvCrash(t)
	tree := seedTree(t, p, 0)
	g, err := NewGenerator(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := g.Generate(tree, 4)
	var withFaults *TestCase
	for i := range cases {
		if len(cases[i].Faults) > 0 {
			withFaults = &cases[i]
		}
	}
	if withFaults == nil {
		t.Fatalf("no fault-injection test case: %+v", cases)
	}
	// Executing the test case must actually reach the crash.
	inj := &prog.FaultInjector{Base: &prog.DeterministicSyscalls{}, Faults: withFaults.Faults}
	m, err := prog.NewMachine(p, prog.Config{Input: withFaults.Input, Syscalls: inj})
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res.Outcome != prog.OutcomeCrash {
		t.Fatalf("fault-guided run outcome = %v, want crash (faults %+v)", res.Outcome, withFaults.Faults)
	}
}

func TestScheduleGuidanceForMultiThreaded(t *testing.T) {
	b := prog.NewBuilder("mt2", 0).SetLocks(2)
	b.Thread()
	b.Lock(0).Yield().Lock(1).Unlock(1).Unlock(0).Halt()
	b.Thread()
	b.Lock(1).Yield().Lock(0).Unlock(0).Unlock(1).Halt()
	p := b.MustBuild()

	g, err := NewGenerator(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	tree := exectree.New(p.ID)
	cases := g.Generate(tree, 5)
	if len(cases) == 0 {
		t.Fatal("no schedule guidance")
	}
	distinct := map[string]bool{}
	for _, tc := range cases {
		if tc.Schedule == nil {
			t.Errorf("multi-threaded guidance without schedule: %+v", tc)
		}
		key := ""
		for _, c := range tc.Schedule {
			key += string(rune('0' + c))
		}
		distinct[key] = true
	}
	if len(distinct) != len(cases) {
		t.Errorf("duplicate schedules issued: %d distinct of %d", len(distinct), len(cases))
	}
}

func TestGuidanceCertifiesInfeasibleFrontiers(t *testing.T) {
	// if x > 200 { if x < 100 { dead } }: once both observed directions are
	// seeded, guidance should certify the dead side rather than produce a
	// test case for it.
	b := prog.NewBuilder("deadend", 1)
	outer, end := b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpGT, 200, outer)
	b.Jmp(end)
	b.Bind(outer)
	inner := b.NewLabel()
	b.BrImm(0, prog.CmpLT, 100, inner)
	b.Bind(inner)
	b.Bind(end)
	b.Halt()
	p := b.MustBuild()

	tree := seedTree(t, p, 0, 201)
	g, err := NewGenerator(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.Generate(tree, 8)
	if !tree.Complete() {
		t.Errorf("tree should be complete after guidance certifies the dead side; frontiers: %+v",
			tree.FrontiersAll())
	}
}

func TestGenerateOnCompleteTreeIsEmpty(t *testing.T) {
	b := prog.NewBuilder("tiny", 1)
	end := b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpGT, 100, end)
	b.Bind(end)
	b.Halt()
	p := b.MustBuild()

	tree := seedTree(t, p, 0, 200) // both sides covered
	g, err := NewGenerator(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cases := g.Generate(tree, 4); len(cases) != 0 {
		t.Errorf("complete tree produced guidance: %+v", cases)
	}
}

// TestGenerateClampsHostileMax pins the wire-facing bounds: a GetGuidance
// request whose max is zero (the JSON zero value), negative, or absurdly
// large must neither panic (Frontiers asserts positive limits) nor
// materialize an unbounded snapshot.
func TestGenerateClampsHostileMax(t *testing.T) {
	b := prog.NewBuilder("clamp", 1)
	hi, end := b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpGT, 100, hi)
	b.Jmp(end)
	b.Bind(hi)
	b.Const(1, 1)
	b.Bind(end)
	b.Halt()
	p := b.MustBuild()
	tree := seedTree(t, p, 1, 2)
	g, err := NewGenerator(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, max := range []int{0, -1, -1 << 40} {
		if cases := g.Generate(tree, max); len(cases) != 0 {
			t.Errorf("Generate(max=%d) produced %d cases, want 0", max, len(cases))
		}
	}
	if cases := g.Generate(tree, 1<<62); len(cases) == 0 {
		t.Error("huge max clamped to nothing; want clamped-but-working guidance")
	}
}

// buildMemoProgram mixes the three verdicts: for each of n inputs a feasible
// branch with an infeasible one nested under it (x > 100, then x < 50), and
// at the end a branch on a syscall's return that only fault injection
// reaches.
func buildMemoProgram(t *testing.T, n int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("memo", n)
	for i := 0; i < n; i++ {
		hi, dead, next := b.NewLabel(), b.NewLabel(), b.NewLabel()
		b.Input(0, i)
		b.BrImm(0, prog.CmpGT, 100, hi)
		b.Jmp(next)
		b.Bind(hi)
		b.BrImm(0, prog.CmpLT, 50, dead)
		b.Bind(dead)
		b.Bind(next)
	}
	bad, end := b.NewLabel(), b.NewLabel()
	b.Syscall(1, 7, 0)
	b.BrImm(1, prog.CmpGT, 50, bad)
	b.Jmp(end)
	b.Bind(bad)
	b.Const(2, 1)
	b.Bind(end)
	b.Halt()
	return b.MustBuild()
}

// TestMemoMatchesFreshGenerator is the memory's metamorphic check: along a
// seeded sequence of merges, outside certifications, codec round-trips and
// pulls, a long-lived generator — its budget shrunk so that it rotates all
// the time — returns case for case what a generator created for that one
// pull returns on a copy of the tree, leaves the tree as that one leaves its
// copy, asks for each certificate once, and never holds more than its two
// generations' budget while ten times that many frontiers pass through it.
func TestMemoMatchesFreshGenerator(t *testing.T) {
	p := buildMemoProgram(t, 10)
	sym, err := symbolic.New(p, symbolic.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 2 << 10
	g.memo = memo.New[verdict](budget)
	keyOf := func(prefix []exectree.Edge, missing exectree.Edge) string {
		return string(exectree.Frontier{Prefix: prefix, Missing: missing}.AppendKey(nil))
	}

	rng := stats.NewRNG(2024)
	tree := exectree.New(p.ID)
	run := func(input []int64) {
		path, err := sym.Run(input)
		if err != nil {
			t.Fatal(err)
		}
		tree.Merge(path.Events(), path.Outcome)
	}
	seen := map[string]bool{}      // every frontier a pull looked at
	certified := map[string]bool{} // every certificate the long-lived generator asked for
	pulls, cases := 0, 0
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // fleet traffic
			for i := rng.Intn(4); i >= 0; i-- {
				input := make([]int64, p.NumInputs)
				for j := range input {
					input[j] = rng.Int63n(220)
				}
				run(input)
			}
		case op == 4: // somebody else (the prover) discharges a frontier
			if fr := tree.Frontiers(16); len(fr) > 0 {
				f := fr[rng.Intn(len(fr))]
				tree.CertifyInfeasible(f.Prefix, f.Missing)
			}
		case op == 5: // checkpoint and restore: the generator is handed a new tree
			restored, err := exectree.Decode(tree.Encode())
			if err != nil {
				t.Fatal(err)
			}
			tree = restored
		default: // a pull, and the pod running some of what it was given
			if tree.FrontierCount() == 0 {
				continue
			}
			max := rng.Intn(8) + 1
			for _, f := range tree.Frontiers(4 * max) {
				seen[keyOf(f.Prefix, f.Missing)] = true
			}
			copied, err := exectree.Decode(tree.Encode())
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewGenerator(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := fresh.Generate(copied, max)
			live := tree
			got := g.GenerateWith(live, max, func(prefix []exectree.Edge, missing exectree.Edge) bool {
				key := keyOf(prefix, missing)
				if certified[key] {
					t.Fatalf("step %d: certificate for %v after %v asked for twice", step, missing, prefix)
				}
				certified[key] = true
				return live.CertifyInfeasible(prefix, missing)
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d, max %d: remembering generator returned\n%+v\nfresh generator\n%+v", step, max, got, want)
			}
			if !reflect.DeepEqual(tree.FrontiersAll(), copied.FrontiersAll()) {
				t.Fatalf("step %d: the two pulls left different trees", step)
			}
			if r := g.memo.ResidentBytes(); r > budget {
				t.Fatalf("step %d: %d bytes remembered, budget %d", step, r, budget)
			}
			pulls++
			cases += len(got)
			for _, tc := range got {
				if len(tc.Faults) == 0 && rng.Bool(0.5) {
					run(tc.Input)
				}
			}
		}
	}
	if pulls < 100 || cases < 100 || len(certified) < 10 {
		t.Fatalf("vacuous run: %d pulls, %d cases, %d certificates", pulls, cases, len(certified))
	}
	if passed := len(seen) * 64; passed < 10*budget { // 64: the memory's per-entry overhead
		t.Fatalf("only %d distinct frontiers (at least %d bytes) passed through a %d-byte memory", len(seen), passed, budget)
	}
}
