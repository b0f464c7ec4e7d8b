// Package fix defines the fixes SoftBorg's hive synthesizes and distributes
// back to pods (paper §3.3): deadlock-immunity signatures and input guards.
// Fixes never change program code; they are instrumentation-level behaviour
// corrections ("smoothing over the hurdles that prevent the proof"), plus a
// repair-lab channel for fixes a human must confirm.
//
// A fix has one encoding (Append, Read, Decode), in the uvarint framing of
// package codec: the bytes the journal's synthesis records, every checkpoint
// segment and the wire's fix replies carry. Decoding validates the fix.
package fix

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/constraint"
	"repro/internal/deadlock"
	"repro/internal/prog"
)

// Kind discriminates fix types.
type Kind uint8

// Fix kinds.
const (
	// KindDeadlockImmunity distributes a deadlock signature for the pod's
	// immunity gate.
	KindDeadlockImmunity Kind = iota + 1
	// KindInputGuard intercepts inputs proven to reach a failure and
	// replaces them with the nearest known-safe input (a
	// failure-oblivious-style behaviour correction).
	KindInputGuard
)

var kindNames = map[Kind]string{
	KindDeadlockImmunity: "deadlock-immunity",
	KindInputGuard:       "input-guard",
}

// String returns the kind label.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fix is one distributable behaviour correction. Exactly one payload field
// is set, per Kind.
type Fix struct {
	// ID is assigned by the hive; monotonically increasing per program.
	ID int
	// ProgramID binds the fix to a program version.
	ProgramID string
	// Kind selects the payload.
	Kind Kind
	// TargetSignature is the failure signature this fix addresses.
	TargetSignature string

	// Deadlock is set for KindDeadlockImmunity.
	Deadlock *deadlock.Signature
	// Guard is set for KindInputGuard.
	Guard *InputGuard

	// Validated records that the hive checked the fix against its execution
	// tree before distribution.
	Validated bool
}

// InputGuard describes a danger zone in input space and a safe replacement.
type InputGuard struct {
	// Danger is the conjunction matching failing inputs. It is stored in a
	// serializable form (see GuardTerm).
	Danger []GuardTerm
	// SafeInput replaces any matching input.
	SafeInput []int64
}

// GuardTerm is one linear constraint in serializable form:
// sum(coeff_i * input_i) + c <cmp> 0.
type GuardTerm struct {
	// Coeffs are the term's (variable, coefficient) pairs, sorted by
	// variable.
	Coeffs []Coeff
	Const  int64
	Cmp    uint8
}

// Coeff is one variable of a guard term and its coefficient.
type Coeff struct {
	Var int
	K   int64
}

// TermsFromCondition converts a path condition into guard terms. The terms
// of one condition share one array of coefficients; a constant term has
// none (nil), as a decoded one does.
func TermsFromCondition(pc constraint.PathCondition) []GuardTerm {
	n := 0
	for _, c := range pc {
		n += len(c.Expr.Coeffs)
	}
	slab := make([]Coeff, 0, n)
	out := make([]GuardTerm, len(pc))
	for i, c := range pc {
		start := len(slab)
		for v, k := range c.Expr.Coeffs {
			slab = append(slab, Coeff{Var: v, K: k})
		}
		sortTermFrom(slab, start)
		out[i] = GuardTerm{Const: c.Expr.Const, Cmp: uint8(c.Cmp)}
		if len(slab) > start {
			out[i].Coeffs = slab[start:len(slab):len(slab)]
		}
	}
	return out
}

// sortTermFrom sorts the coefficients of the term that starts at slab[start]
// by variable.
func sortTermFrom(slab []Coeff, start int) {
	slices.SortFunc(slab[start:], func(a, b Coeff) int { return a.Var - b.Var })
}

// Matches reports whether input falls in the danger zone. A pod asks this of
// every installed guard on every run, and reuses the one collector and one
// machine it owns, so that a run allocates only its trace. Each term is
// therefore evaluated in place over the input: a variable outside the input
// reads 0, as an unassigned variable does in a path condition, and sums wrap
// as int64.
func (g *InputGuard) Matches(input []int64) bool {
	for _, t := range g.Danger {
		sum := t.Const
		for _, c := range t.Coeffs {
			if c.Var >= 0 && c.Var < len(input) {
				sum += c.K * input[c.Var]
			}
		}
		if !prog.Cmp(t.Cmp).Eval(sum, 0) {
			return false
		}
	}
	return true
}

// ErrInvalid is wrapped by Validate failures.
var ErrInvalid = errors.New("fix: invalid")

// Validate structurally checks the fix.
func (f *Fix) Validate() error {
	switch f.Kind {
	case KindDeadlockImmunity:
		if f.Deadlock == nil || len(f.Deadlock.Edges) == 0 {
			return fmt.Errorf("%w: deadlock fix without signature", ErrInvalid)
		}
	case KindInputGuard:
		if f.Guard == nil || len(f.Guard.Danger) == 0 {
			return fmt.Errorf("%w: input guard without danger terms", ErrInvalid)
		}
		if len(f.Guard.SafeInput) == 0 {
			return fmt.Errorf("%w: input guard without safe input", ErrInvalid)
		}
		if f.Guard.Matches(f.Guard.SafeInput) {
			return fmt.Errorf("%w: safe input falls in its own danger zone", ErrInvalid)
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrInvalid, f.Kind)
	}
	return nil
}

// Append appends f's encoding to buf:
//
//	fix     = varint ID | field ProgramID | byte Kind | field TargetSignature
//	        | bool Validated | bool has-deadlock [deadlock] | bool has-guard [guard]
//	deadlock = list of (varint PC, varint LockID)
//	guard   = list of (varint var, varint coeff) | list of term | list of varint (SafeInput)
//	term    = uvarint coefficient count | varint Const | byte Cmp
//
// where a field is a uvarint length and that many bytes, a list a uvarint
// count and that many items, and a bool one byte, 0 or 1. A guard's
// coefficients come first, all terms' in term order, and each term takes the
// next run of them, so a decoded guard holds all of them in one array.
func Append(buf []byte, f *Fix) []byte {
	buf = binary.AppendVarint(buf, int64(f.ID))
	buf = codec.AppendField(buf, f.ProgramID)
	buf = append(buf, byte(f.Kind))
	buf = codec.AppendField(buf, f.TargetSignature)
	buf = codec.AppendBool(buf, f.Validated)
	buf = codec.AppendBool(buf, f.Deadlock != nil)
	if f.Deadlock != nil {
		buf = binary.AppendUvarint(buf, uint64(len(f.Deadlock.Edges)))
		for _, e := range f.Deadlock.Edges {
			buf = binary.AppendVarint(buf, int64(e.PC))
			buf = binary.AppendVarint(buf, int64(e.LockID))
		}
	}
	buf = codec.AppendBool(buf, f.Guard != nil)
	if g := f.Guard; g != nil {
		n := 0
		for _, t := range g.Danger {
			n += len(t.Coeffs)
		}
		buf = binary.AppendUvarint(buf, uint64(n))
		for _, t := range g.Danger {
			for _, c := range t.Coeffs {
				buf = binary.AppendVarint(buf, int64(c.Var))
				buf = binary.AppendVarint(buf, c.K)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(g.Danger)))
		for _, t := range g.Danger {
			buf = binary.AppendUvarint(buf, uint64(len(t.Coeffs)))
			buf = binary.AppendVarint(buf, t.Const)
			buf = append(buf, t.Cmp)
		}
		buf = binary.AppendUvarint(buf, uint64(len(g.SafeInput)))
		for _, x := range g.SafeInput {
			buf = binary.AppendVarint(buf, x)
		}
	}
	return buf
}

// MinBytes is the fewest bytes a fix's encoding takes, for sizing a list of
// them (codec.Decoder.Count).
const MinBytes = 7

// Read reads one fix from d into f and validates it. f shares no memory with
// d's input.
func Read(d *codec.Decoder, f *Fix) error {
	*f = Fix{
		ID:              int(d.Varint()),
		ProgramID:       d.String(),
		Kind:            Kind(d.Byte()),
		TargetSignature: d.String(),
		Validated:       d.Bool(),
	}
	if d.Bool() {
		sig := &deadlock.Signature{}
		if n := d.Count(2); n > 0 {
			sig.Edges = make([]deadlock.SignatureEdge, n)
			for i := range sig.Edges {
				sig.Edges[i] = deadlock.SignatureEdge{PC: int32(d.Varint()), LockID: int32(d.Varint())}
			}
		}
		f.Deadlock = sig
	}
	if d.Bool() {
		f.Guard = readGuard(d)
	}
	if err := d.Err(); err != nil {
		return err
	}
	return f.Validate()
}

// readGuard reads the guard Append writes.
func readGuard(d *codec.Decoder) *InputGuard {
	g := &InputGuard{}
	var slab []Coeff
	if n := d.Count(2); n > 0 {
		slab = make([]Coeff, n)
		for i := range slab {
			slab[i] = Coeff{Var: int(d.Varint()), K: d.Varint()}
		}
	}
	if n := d.Count(3); n > 0 {
		g.Danger = make([]GuardTerm, n)
		for i := range g.Danger {
			m := d.Uvarint()
			if m > uint64(len(slab)) {
				d.Fail("term of %d coefficients past the %d left", m, len(slab))
				return g
			}
			if m > 0 {
				g.Danger[i].Coeffs = slab[:m:m]
				slab = slab[m:]
			}
			g.Danger[i].Const = d.Varint()
			g.Danger[i].Cmp = d.Byte()
		}
	}
	if len(slab) > 0 {
		d.Fail("%d coefficients no term takes", len(slab))
	}
	if n := d.Count(1); n > 0 {
		g.SafeInput = make([]int64, n)
		for i := range g.SafeInput {
			g.SafeInput[i] = d.Varint()
		}
	}
	return g
}

// Decode parses a fix that fills data, and validates it.
func Decode(data []byte) (*Fix, error) {
	d := codec.NewDecoder(data, ErrInvalid, "fix")
	f := &Fix{}
	if err := Read(&d, f); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return f, nil
}

// Set is an ordered, versioned collection of fixes for one program, as held
// by the hive and mirrored by pods. Version equals the highest fix ID.
type Set struct {
	fixes []Fix
}

// Add appends a fix, assigning its ID, and returns the new version.
func (s *Set) Add(f Fix) int {
	f.ID = len(s.fixes) + 1
	s.fixes = append(s.fixes, f)
	return f.ID
}

// Since returns fixes with ID > version, plus the current version.
func (s *Set) Since(version int) ([]Fix, int) {
	cur := len(s.fixes)
	if version >= cur {
		return nil, cur
	}
	if version < 0 {
		version = 0
	}
	out := make([]Fix, cur-version)
	copy(out, s.fixes[version:])
	return out, cur
}

// All returns every fix.
func (s *Set) All() []Fix {
	return append([]Fix(nil), s.fixes...)
}

// Load replaces the set's contents with fixes previously produced by All
// (hive recovery). Fixes must be in ID order with IDs 1..n — the invariant
// Add maintains — so versions assigned before a restart stay valid after
// it.
func (s *Set) Load(fixes []Fix) error {
	for i, f := range fixes {
		if f.ID != i+1 {
			return fmt.Errorf("%w: loaded fix %d has ID %d", ErrInvalid, i, f.ID)
		}
	}
	s.fixes = append([]Fix(nil), fixes...)
	return nil
}

// Len returns the number of fixes.
func (s *Set) Len() int { return len(s.fixes) }
