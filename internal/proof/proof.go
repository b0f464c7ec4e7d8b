// Package proof implements SoftBorg's cumulative proofs (paper §3.3): the
// unification of tests and proofs along one spectrum. Naturally occurring
// executions accumulate in the execution tree as evidence; the prover
// discharges the remaining unexplored directions with symbolic analysis
// (inputs that cover them, or infeasibility certificates), and once the tree
// is complete, the accumulated test suite *is* a proof of the property over
// all feasible in-domain executions.
package proof

import (
	"encoding/json"
	"fmt"

	"repro/internal/constraint"
	"repro/internal/exectree"
	"repro/internal/prog"
	"repro/internal/symbolic"
	"repro/internal/trace"
)

// Property is a behavioural property the hive tries to prove.
type Property uint8

// Provable properties.
const (
	// PropNoCrash: no feasible execution crashes.
	PropNoCrash Property = iota + 1
	// PropNoAssertFail: no feasible execution fails an assertion.
	PropNoAssertFail
	// PropAllOK: every feasible execution terminates with OutcomeOK.
	PropAllOK
	// PropNoDeadlock: no execution deadlocks (meaningful for bounded
	// schedule proofs of multi-threaded programs).
	PropNoDeadlock
)

var propNames = map[Property]string{
	PropNoCrash:      "no-crash",
	PropNoAssertFail: "no-assert-fail",
	PropAllOK:        "all-ok",
	PropNoDeadlock:   "no-deadlock",
}

// String returns the property label.
func (p Property) String() string {
	if s, ok := propNames[p]; ok {
		return s
	}
	return fmt.Sprintf("property(%d)", uint8(p))
}

// violatedBy reports whether an outcome violates the property.
func (p Property) violatedBy(o prog.Outcome) bool {
	switch p {
	case PropNoCrash:
		return o == prog.OutcomeCrash
	case PropNoAssertFail:
		return o == prog.OutcomeAssertFail
	case PropAllOK:
		return o != prog.OutcomeOK
	case PropNoDeadlock:
		return o == prog.OutcomeDeadlock
	default:
		return false
	}
}

// CounterExample is a concrete violation found during proving.
type CounterExample struct {
	// Path is the branch decision path to the violation.
	Path []trace.BranchEvent
	// Outcome is the violating outcome.
	Outcome prog.Outcome
	// Input reproduces the violation (when synthesized by the prover).
	Input []int64
}

// Evidence is one execution the prover synthesized and merged into the tree
// while discharging frontiers. The attempt records every such merge so a
// journaled hive can replay the attempt's tree mutations on recovery
// (infeasibility certificates are journaled separately, by the certify
// function the hive hands AttemptWith).
type Evidence struct {
	Path    []trace.BranchEvent `json:"path"`
	Outcome prog.Outcome        `json:"outcome"`
}

// Proof is the (possibly partial) result of a proving attempt. The paper's
// spectrum is explicit here: Coverage < 1 with Holds=true is "a weaker
// proof" (a test suite); Complete && Holds is a full proof over the input
// domain.
type Proof struct {
	ProgramID string
	Property  Property
	// Complete reports whether every decision point has both directions
	// explored or certified infeasible.
	Complete bool
	// Holds reports that no covered execution violates the property.
	Holds bool
	// PathsCovered and NodesExplored size the evidence.
	PathsCovered  int64
	NodesExplored int64
	// Certificates counts infeasibility certificates minted during this
	// attempt; CertificatesTotal counts those plus pre-existing ones used.
	Certificates int
	// NewEvidence counts executions the prover itself synthesized to fill
	// gaps (execution guidance applied to itself).
	NewEvidence int
	// CounterExamples lists violations (empty when Holds).
	CounterExamples []CounterExample
	// Evidence lists the executions the prover merged into the tree during
	// this attempt (replay support for hive persistence; len(Evidence) ==
	// NewEvidence).
	Evidence []Evidence `json:",omitempty"`
	// Epoch is the fix-set version this proof is valid for; applying a new
	// fix invalidates it.
	Epoch int
}

// Statement renders the proof verdict as a sentence.
func (p *Proof) Statement() string {
	switch {
	case p.Complete && p.Holds:
		return fmt.Sprintf("PROVEN: %s holds for program %s over the whole input domain (%d paths, %d certificates)",
			p.Property, p.ProgramID, p.PathsCovered, p.Certificates)
	case p.Holds:
		return fmt.Sprintf("PARTIAL: %s holds over %d covered paths of program %s (tree incomplete)",
			p.Property, p.PathsCovered, p.ProgramID)
	default:
		return fmt.Sprintf("REFUTED: %s violated by %d counter-example(s) in program %s",
			p.Property, len(p.CounterExamples), p.ProgramID)
	}
}

// Engine drives proof attempts for one single-threaded program.
type Engine struct {
	prog *prog.Program
	sym  *symbolic.Engine
	// MaxDischarge bounds frontier-discharge iterations per attempt.
	MaxDischarge int
}

// NewEngine creates a proof engine. The symbolic engine must wrap the same
// program.
func NewEngine(p *prog.Program, sym *symbolic.Engine) *Engine {
	return &Engine{prog: p, sym: sym, MaxDischarge: 10_000}
}

// Attempt tries to prove property over the evidence in tree, synthesizing
// missing evidence and infeasibility certificates as needed. The tree is
// mutated: frontiers get discharged (merged paths or certificates). epoch
// tags the returned proof with the current fix version.
func (e *Engine) Attempt(tree *exectree.Tree, property Property, epoch int) (*Proof, error) {
	return e.AttemptWith(tree, property, epoch, tree.CertifyInfeasible)
}

// AttemptWith is Attempt with the certification of refuted frontiers left to
// the caller, as guidance.Generator.GenerateWith leaves it: certify is called
// for each frontier whose missing direction is infeasible and reports whether
// the tree now holds the certificate. The hive uses it to journal a
// certificate ahead of applying it. The prefix must not be retained.
func (e *Engine) AttemptWith(tree *exectree.Tree, property Property, epoch int, certify func(prefix []exectree.Edge, missing exectree.Edge) bool) (*Proof, error) {
	pr := &Proof{ProgramID: tree.ProgramID(), Property: property, Epoch: epoch}

	for iter := 0; iter < e.MaxDischarge; iter++ {
		frontiers := tree.Frontiers(64)
		if len(frontiers) == 0 {
			break
		}
		progress := false
		for _, f := range frontiers {
			input, verdict, err := e.sym.SolveFrontier(f)
			if err != nil {
				return nil, fmt.Errorf("proof: discharge frontier: %w", err)
			}
			switch verdict {
			case constraint.SAT:
				path, err := e.sym.Run(input)
				if err != nil {
					return nil, fmt.Errorf("proof: run synthesized input: %w", err)
				}
				res := tree.Merge(path.Events(), path.Outcome)
				pr.NewEvidence++
				pr.Evidence = append(pr.Evidence, Evidence{Path: path.Events(), Outcome: path.Outcome})
				if res.NewNodes > 0 || res.NewPath || res.NewEdges > 0 {
					progress = true
				}
				if property.violatedBy(path.Outcome) {
					pr.CounterExamples = append(pr.CounterExamples, CounterExample{
						Path:    path.Events(),
						Outcome: path.Outcome,
						Input:   path.Input,
					})
				}
			case constraint.UNSAT:
				if certify(f.Prefix, f.Missing) {
					pr.Certificates++
					progress = true
				}
			default:
				// Unknown: leave the frontier; completeness will fail.
			}
		}
		if !progress {
			break
		}
	}

	// Judge the evidence, deduplicating against counter-examples already
	// recorded during discharge (which carry reproducing inputs).
	seen := make(map[string]bool, len(pr.CounterExamples))
	for _, ce := range pr.CounterExamples {
		seen[ceKey(ce.Path, ce.Outcome)] = true
	}
	tree.Walk(func(path []exectree.Edge, n *exectree.Node) bool {
		for outcome, count := range n.Terminals() {
			if count > 0 && property.violatedBy(outcome) {
				events := edgesToEvents(path)
				key := ceKey(events, outcome)
				if seen[key] {
					continue
				}
				seen[key] = true
				pr.CounterExamples = append(pr.CounterExamples, CounterExample{
					Path:    events,
					Outcome: outcome,
				})
			}
		}
		return true
	})

	st := tree.Stats()
	pr.PathsCovered = st.Paths
	pr.NodesExplored = st.Nodes
	pr.Complete = tree.Complete()
	pr.Holds = len(pr.CounterExamples) == 0
	return pr, nil
}

// Encode serializes the proof for hive persistence.
func Encode(p *Proof) ([]byte, error) {
	return json.Marshal(p)
}

// Decode parses a proof serialized by Encode.
func Decode(data []byte) (*Proof, error) {
	var p Proof
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("proof: decode: %w", err)
	}
	return &p, nil
}

func edgesToEvents(path []exectree.Edge) []trace.BranchEvent {
	out := make([]trace.BranchEvent, len(path))
	for i, e := range path {
		out[i] = trace.BranchEvent{ID: e.ID, Taken: e.Taken}
	}
	return out
}

func ceKey(path []trace.BranchEvent, outcome prog.Outcome) string {
	key := make([]byte, 0, len(path)*3+1)
	for _, ev := range path {
		b := byte(0)
		if ev.Taken {
			b = 1
		}
		key = append(key, byte(ev.ID), byte(ev.ID>>8), b)
	}
	return string(append(key, byte(outcome)))
}
