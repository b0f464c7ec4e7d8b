// Package proof implements SoftBorg's cumulative proofs (paper §3.3): the
// unification of tests and proofs along one spectrum. Naturally occurring
// executions accumulate in the execution tree as evidence; the prover
// discharges the remaining unexplored directions with symbolic analysis
// (inputs that cover them, or infeasibility certificates), and once the tree
// is complete, the accumulated test suite *is* a proof of the property over
// all feasible in-domain executions.
//
// A proof has one encoding (Append, Decode), in the uvarint framing of
// package codec: the bytes the journal's proof records and every checkpoint
// segment carry.
package proof

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/codec"
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
	Path    []trace.BranchEvent
	Outcome prog.Outcome
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
	Evidence []Evidence
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

// ErrCodec is wrapped by Decode failures.
var ErrCodec = errors.New("proof: malformed encoding")

// Append appends p's encoding to buf:
//
//	proof = field ProgramID | byte Property | byte flags (1 Complete, 2 Holds)
//	      | varint PathsCovered, NodesExplored, Certificates, NewEvidence, Epoch
//	      | list of (path | byte outcome | list of varint) (CounterExamples)
//	      | list of (path | byte outcome) (Evidence)
//	path  = list of uvarint ID<<1|taken
//
// where a field is a uvarint length and that many bytes, and a list a
// uvarint count and that many items. An empty list decodes as nil.
func Append(buf []byte, p *Proof) []byte {
	buf = codec.AppendField(buf, p.ProgramID)
	var flags byte
	if p.Complete {
		flags |= proofComplete
	}
	if p.Holds {
		flags |= proofHolds
	}
	buf = append(buf, byte(p.Property), flags)
	for _, v := range [...]int64{p.PathsCovered, p.NodesExplored, int64(p.Certificates), int64(p.NewEvidence), int64(p.Epoch)} {
		buf = binary.AppendVarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.CounterExamples)))
	for _, ce := range p.CounterExamples {
		buf = append(appendPath(buf, ce.Path), byte(ce.Outcome))
		buf = binary.AppendUvarint(buf, uint64(len(ce.Input)))
		for _, x := range ce.Input {
			buf = binary.AppendVarint(buf, x)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Evidence)))
	for _, ev := range p.Evidence {
		buf = append(appendPath(buf, ev.Path), byte(ev.Outcome))
	}
	return buf
}

// The flag bits of an encoded proof; any other bit is malformed.
const (
	proofComplete = 1 << iota
	proofHolds
)

func appendPath(buf []byte, path []trace.BranchEvent) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(path)))
	for _, ev := range path {
		v := uint64(uint32(ev.ID)) << 1
		if ev.Taken {
			v |= 1
		}
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

func readPath(d *codec.Decoder) []trace.BranchEvent {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	path := make([]trace.BranchEvent, n)
	for i := range path {
		v := d.Uvarint()
		if v>>33 != 0 {
			d.Fail("branch event %#x", v)
		}
		path[i] = trace.BranchEvent{ID: int32(uint32(v >> 1)), Taken: v&1 == 1}
	}
	return path
}

// Decode parses a proof that fills data. The proof shares no memory with
// data.
func Decode(data []byte) (*Proof, error) {
	d := codec.NewDecoder(data, ErrCodec, "proof")
	p := &Proof{ProgramID: d.String(), Property: Property(d.Byte())}
	flags := d.Byte()
	if flags&^(proofComplete|proofHolds) != 0 {
		d.Fail("flags %#x", flags)
	}
	p.Complete, p.Holds = flags&proofComplete != 0, flags&proofHolds != 0
	p.PathsCovered, p.NodesExplored = d.Varint(), d.Varint()
	p.Certificates, p.NewEvidence, p.Epoch = int(d.Varint()), int(d.Varint()), int(d.Varint())
	// A counter-example takes at least three bytes (two empty lists and the
	// outcome), an evidence path two.
	if n := d.Count(3); n > 0 {
		p.CounterExamples = make([]CounterExample, n)
		for i := range p.CounterExamples {
			ce := &p.CounterExamples[i]
			ce.Path, ce.Outcome = readPath(&d), prog.Outcome(d.Byte())
			if m := d.Count(1); m > 0 {
				ce.Input = make([]int64, m)
				for j := range ce.Input {
					ce.Input[j] = d.Varint()
				}
			}
		}
	}
	if n := d.Count(2); n > 0 {
		p.Evidence = make([]Evidence, n)
		for i := range p.Evidence {
			p.Evidence[i] = Evidence{Path: readPath(&d), Outcome: prog.Outcome(d.Byte())}
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return p, nil
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
