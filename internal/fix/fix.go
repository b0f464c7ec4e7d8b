// Package fix defines the fixes SoftBorg's hive synthesizes and distributes
// back to pods (paper §3.3): deadlock-immunity signatures and input guards.
// Fixes never change program code; they are instrumentation-level behaviour
// corrections ("smoothing over the hurdles that prevent the proof"), plus a
// repair-lab channel for fixes a human must confirm.
package fix

import (
	"encoding/json"
	"errors"
	"fmt"

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
	ID int `json:"id"`
	// ProgramID binds the fix to a program version.
	ProgramID string `json:"programId"`
	// Kind selects the payload.
	Kind Kind `json:"kind"`
	// TargetSignature is the failure signature this fix addresses.
	TargetSignature string `json:"targetSignature"`

	// Deadlock is set for KindDeadlockImmunity.
	Deadlock *deadlock.Signature `json:"deadlock,omitempty"`
	// Guard is set for KindInputGuard.
	Guard *InputGuard `json:"guard,omitempty"`

	// Validated records that the hive checked the fix against its execution
	// tree before distribution.
	Validated bool `json:"validated"`
}

// InputGuard describes a danger zone in input space and a safe replacement.
type InputGuard struct {
	// Danger is the conjunction matching failing inputs. It is stored in a
	// serializable form (see GuardTerm).
	Danger []GuardTerm `json:"danger"`
	// SafeInput replaces any matching input.
	SafeInput []int64 `json:"safeInput"`
}

// GuardTerm is one linear constraint in serializable form:
// sum(coeff_i * input_i) + c <cmp> 0.
type GuardTerm struct {
	Coeffs map[int]int64 `json:"coeffs"`
	Const  int64         `json:"const"`
	Cmp    uint8         `json:"cmp"`
}

// TermsFromCondition converts a path condition into guard terms.
func TermsFromCondition(pc constraint.PathCondition) []GuardTerm {
	out := make([]GuardTerm, len(pc))
	for i, c := range pc {
		coeffs := make(map[int]int64, len(c.Expr.Coeffs))
		for v, k := range c.Expr.Coeffs {
			coeffs[v] = k
		}
		out[i] = GuardTerm{Coeffs: coeffs, Const: c.Expr.Const, Cmp: uint8(c.Cmp)}
	}
	return out
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
		for v, k := range t.Coeffs {
			if v >= 0 && v < len(input) {
				sum += k * input[v]
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

// Encode serializes the fix for the wire.
func Encode(f *Fix) ([]byte, error) {
	return json.Marshal(f)
}

// Decode parses a fix.
func Decode(data []byte) (*Fix, error) {
	var f Fix
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("fix: decode: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
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
