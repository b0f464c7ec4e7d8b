// Package sat implements the propositional-satisfiability substrate for
// SoftBorg's cooperative solving experiments (paper §4): CNF formulas, three
// complete DPLL solvers with deliberately different decision heuristics (so a
// portfolio of them exhibits the complementary per-instance variance the
// paper exploits), and generators for random and structured instances.
// Formulas live only in memory: the generators build them and the portfolio
// hands them to the solvers, so there is no file format.
//
// Solver effort is measured in deterministic "ticks" (propagation visits +
// decisions) rather than wall-clock time, so experiments replay exactly.
package sat

// Lit is a literal: +v for variable v, -v for its negation. Variables are
// numbered from 1.
type Lit int32

// Var returns the literal's variable.
func (l Lit) Var() int32 {
	if l < 0 {
		return int32(-l)
	}
	return int32(l)
}

// Pos reports whether the literal is positive.
func (l Lit) Pos() bool { return l > 0 }

// Neg returns the negated literal.
func (l Lit) Neg() Lit { return -l }

// Clause is a disjunction of literals.
type Clause []Lit

// Formula is a CNF formula.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// Eval checks an assignment (1-indexed; index 0 unused) against the formula.
func (f *Formula) Eval(assign []bool) bool {
	for _, c := range f.Clauses {
		sat := false
		for _, l := range c {
			if assign[l.Var()] == l.Pos() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// Clone deep-copies the formula.
func (f *Formula) Clone() *Formula {
	out := &Formula{NumVars: f.NumVars, Clauses: make([]Clause, len(f.Clauses))}
	for i, c := range f.Clauses {
		out.Clauses[i] = append(Clause(nil), c...)
	}
	return out
}
