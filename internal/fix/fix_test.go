package fix

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/codec/codectest"
	"repro/internal/constraint"
	"repro/internal/deadlock"
	"repro/internal/prog"
)

func guardFor(t *testing.T) *InputGuard {
	t.Helper()
	// Danger: 100 <= x0 <= 109.
	pc := constraint.PathCondition{
		constraint.NewConstraint(constraint.Var(0), prog.CmpGE, constraint.Const(100)),
		constraint.NewConstraint(constraint.Var(0), prog.CmpLE, constraint.Const(109)),
	}
	return &InputGuard{Danger: TermsFromCondition(pc), SafeInput: []int64{50}}
}

// Condition converts guard terms back to a path condition: the oracle
// Matches is checked against.
func (g *InputGuard) Condition() constraint.PathCondition {
	out := make(constraint.PathCondition, len(g.Danger))
	for i, t := range g.Danger {
		expr := constraint.Const(t.Const)
		for _, c := range t.Coeffs {
			expr = expr.Add(constraint.Var(c.Var).MulConst(c.K))
		}
		out[i] = constraint.Constraint{Expr: expr, Cmp: prog.Cmp(t.Cmp)}
	}
	return out
}

func TestInputGuardMatches(t *testing.T) {
	g := guardFor(t)
	if !g.Matches([]int64{105}) {
		t.Error("guard misses danger input")
	}
	if g.Matches([]int64{99}) || g.Matches([]int64{110}) {
		t.Error("guard over-matches boundary")
	}
	if allocs := testing.AllocsPerRun(100, func() { g.Matches([]int64{105}) }); allocs != 0 {
		t.Errorf("Matches allocates %.0f times, want 0", allocs)
	}
}

// FuzzGuardMatches checks Matches against the path condition the guard
// denotes, evaluated under the input as an assignment. Each case is a guard
// of two terms over up to three inputs.
func FuzzGuardMatches(f *testing.F) {
	f.Add(int64(-100), 0, int64(1), 1, int64(0), uint8(prog.CmpGE), uint8(1), int64(105), int64(0), int64(0))
	f.Add(int64(7), -1, int64(3), 5, int64(-2), uint8(prog.CmpEQ), uint8(3), int64(1), int64(2), int64(3)) // negative and out-of-range variables
	f.Add(int64(0), 0, int64(0), 1, int64(0), uint8(prog.CmpNE), uint8(2), int64(9), int64(9), int64(9))   // zero coefficients
	f.Add(int64(math.MaxInt64), 0, int64(3), 2, int64(math.MinInt64), uint8(prog.CmpLT), uint8(3),
		int64(math.MaxInt64), int64(5), int64(-1)) // products and sums that wrap
	f.Add(int64(4), 0, int64(-1), 1, int64(1), uint8(prog.CmpLE), uint8(0), int64(0), int64(0), int64(0)) // empty input
	for cmp := uint8(0); cmp <= uint8(prog.CmpGE)+1; cmp++ {
		f.Add(int64(-3), 0, int64(1), 2, int64(2), cmp, uint8(3), int64(3), int64(-4), int64(2))
	}
	f.Fuzz(func(t *testing.T, c int64, v0 int, k0 int64, v1 int, k1 int64, cmp, n uint8, x0, x1, x2 int64) {
		g := &InputGuard{Danger: []GuardTerm{
			{Coeffs: []Coeff{{v0, k0}, {v1, k1}}, Const: c, Cmp: cmp},
			{Coeffs: []Coeff{{v1, k0 * k1}}, Const: -c, Cmp: cmp + 1},
		}}
		input := []int64{x0, x1, x2}[:n%4]
		assign := make(map[int]int64, len(input))
		for i, x := range input {
			assign[i] = x
		}
		if got, want := g.Matches(input), g.Condition().Holds(assign); got != want {
			t.Fatalf("Matches(%v) = %v, its path condition says %v (guard %+v)", input, got, want, g.Danger)
		}
	})
}

func TestConditionRoundTrip(t *testing.T) {
	g := guardFor(t)
	cond := g.Condition()
	if !cond.Holds(map[int]int64{0: 105}) || cond.Holds(map[int]int64{0: 5}) {
		t.Error("round-tripped condition wrong")
	}
}

func TestValidate(t *testing.T) {
	sig := deadlock.Signature{Edges: []deadlock.SignatureEdge{{PC: 1, LockID: 0}}}
	good := []Fix{
		{Kind: KindDeadlockImmunity, Deadlock: &sig},
		{Kind: KindInputGuard, Guard: guardFor(t)},
	}
	for i, f := range good {
		if err := f.Validate(); err != nil {
			t.Errorf("fix %d: %v", i, err)
		}
	}
	bad := []Fix{
		{Kind: KindDeadlockImmunity},
		{Kind: KindInputGuard},
		{Kind: KindInputGuard, Guard: &InputGuard{Danger: guardFor(t).Danger}},
		{Kind: Kind(99)},
		// Safe input inside its own danger zone.
		{Kind: KindInputGuard, Guard: &InputGuard{Danger: guardFor(t).Danger, SafeInput: []int64{105}}},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad fix %d accepted", i)
		}
	}
}

func TestEncodeDecode(t *testing.T) {
	f := &Fix{
		ID: 3, ProgramID: "prog-x", Kind: KindInputGuard,
		TargetSignature: "crash@12#-1", Guard: guardFor(t), Validated: true,
	}
	got, err := Decode(Append(nil, f))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Errorf("decoded = %+v, want %+v", got, f)
	}
	if !got.Guard.Matches([]int64{105}) {
		t.Error("decoded guard lost semantics")
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode(Append(nil, &Fix{Kind: 99})); !errors.Is(err, ErrInvalid) {
		t.Errorf("invalid kind: err = %v, want ErrInvalid", err)
	}
	if _, err := Decode([]byte(`not a fix`)); !errors.Is(err, ErrInvalid) {
		t.Errorf("garbage: err = %v, want ErrInvalid", err)
	}
	good := Append(nil, &Fix{Kind: KindInputGuard, Guard: guardFor(t)})
	if _, err := Decode(append(good, 0)); err == nil {
		t.Error("a trailing byte decoded")
	}
	for n := range good {
		if _, err := Decode(good[:n]); err == nil {
			t.Errorf("a fix cut at byte %d of %d decoded", n, len(good))
		}
	}
}

// randomFix draws a fix of either kind, valid or not, with every field set
// from rng and lists of every length from empty up.
func randomFix(rng *rand.Rand) *Fix {
	f := &Fix{
		ID:              rng.Intn(1 << 20),
		ProgramID:       fmt.Sprintf("prog-%d", rng.Intn(100)),
		Kind:            Kind(1 + rng.Intn(2)),
		TargetSignature: fmt.Sprintf("crash@%d#-1", rng.Intn(50)),
		Validated:       rng.Intn(2) == 0,
	}
	if f.Kind == KindDeadlockImmunity {
		sig := &deadlock.Signature{}
		for i := rng.Intn(4); i >= 0; i-- {
			sig.Edges = append(sig.Edges, deadlock.SignatureEdge{PC: rng.Int31() - 1<<30, LockID: rng.Int31n(8)})
		}
		f.Deadlock = sig
		return f
	}
	g := &InputGuard{}
	for i := rng.Intn(5); i >= 0; i-- {
		var term GuardTerm
		for v := 0; v < rng.Intn(4); v++ {
			term.Coeffs = append(term.Coeffs, Coeff{Var: v, K: rng.Int63() - 1<<62})
		}
		term.Const = rng.Int63() - 1<<62
		term.Cmp = uint8(rng.Intn(int(prog.CmpGE) + 1))
		g.Danger = append(g.Danger, term)
	}
	for i := rng.Intn(4); i >= 0; i-- {
		g.SafeInput = append(g.SafeInput, rng.Int63()-1<<62)
	}
	f.Guard = g
	return f
}

// TestCodecRoundTrip: every fix that validates decodes from its encoding to
// itself, and its encoding is the same bytes again; every fix that does not
// validate is refused.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	valid := 0
	for i := 0; i < 2000; i++ {
		f := randomFix(rng)
		data := Append(nil, f)
		got, err := Decode(data)
		if verr := f.Validate(); verr != nil {
			if err == nil {
				t.Fatalf("fix %+v does not validate (%v) but decoded", f, verr)
			}
			continue
		}
		valid++
		if err != nil {
			t.Fatalf("fix %+v: %v", f, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("decoded %+v, want %+v", got, f)
		}
		if again := Append(nil, got); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding a decoded fix gave other bytes")
		}
	}
	if valid < 500 {
		t.Fatalf("only %d of 2000 random fixes validate: the property covers too little", valid)
	}
}

// FuzzFixDecode: a hostile count or length in any list or field of a fix is
// refused without sizing anything past the input, and whatever decodes
// survives a round trip through its encoding.
func FuzzFixDecode(f *testing.F) {
	guard := Append(nil, &Fix{Kind: KindInputGuard, Guard: guardFor(&testing.T{})})
	f.Add(guard)
	decode := func(data []byte) error { _, err := Decode(data); return err }
	codectest.Fuzz(f, decode,
		nil,                            // the ID
		[]byte{2},                      // the program ID's length
		[]byte{2, 0, 1, 0, 0, 1},       // the deadlock's edge count
		[]byte{2, 0, 2, 0, 0, 0, 1},    // the guard's coefficient count
		[]byte{2, 0, 2, 0, 0, 0, 1, 0}, // the guard's term count
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Fix
		if codectest.Decode(t, data, func(b []byte) (err error) { got, err = Decode(b); return err }) != nil {
			return
		}
		again, err := Decode(Append(nil, got))
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("%x decoded to %+v, which round-trips to %+v (%v)", data, got, again, err)
		}
	})
}

func TestSetVersioning(t *testing.T) {
	var s Set
	sig := deadlock.Signature{Edges: []deadlock.SignatureEdge{{PC: 1, LockID: 0}}}
	v1 := s.Add(Fix{Kind: KindDeadlockImmunity, Deadlock: &sig, TargetSignature: "a"})
	v2 := s.Add(Fix{Kind: KindInputGuard, Guard: guardFor(t), TargetSignature: "b"})
	if v1 != 1 || v2 != 2 || s.Len() != 2 {
		t.Fatalf("versions %d %d len %d", v1, v2, s.Len())
	}
	all, cur := s.Since(0)
	if len(all) != 2 || cur != 2 {
		t.Errorf("since 0: %d fixes, version %d", len(all), cur)
	}
	inc, cur2 := s.Since(1)
	if len(inc) != 1 || inc[0].TargetSignature != "b" || cur2 != 2 {
		t.Errorf("since 1: %+v version %d", inc, cur2)
	}
	none, _ := s.Since(5)
	if len(none) != 0 {
		t.Errorf("since 5: %+v", none)
	}
	if !s.HasTarget("a") || s.HasTarget("zzz") {
		t.Error("HasTarget wrong")
	}
}
