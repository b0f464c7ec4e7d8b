// Package symbolic implements SoftBorg's symbolic program analysis (paper
// §3.3–§4): a concolic engine over the prog VM that executes a program
// concretely while shadowing registers and memory with linear expressions
// over the inputs. The hive uses it to
//
//   - collect the path condition of an execution (one constraint per
//     input-dependent branch),
//   - synthesize inputs that drive execution to a chosen frontier of the
//     hive's execution tree (the test cases of execution guidance),
//   - certify unexplored branch directions infeasible (the certificates
//     that complete cumulative proofs), and
//   - perform relaxed-consistency analysis (S2E-style): syscall returns can
//     be treated as fresh unconstrained symbolic variables, which
//     over-approximates the environment; properties proven over the
//     superset hold over all feasible executions.
//
// The engine answers one frontier at a time (SolveFrontier,
// SolveFrontierEnv), the question guidance and the prover ask; it does not
// explore a program on its own, since the hive's execution tree already
// says which directions are missing. It handles single-threaded programs
// over constraint.DefaultDomain with the solver's default effort budget;
// multi-threaded feasibility is explored by schedule enumeration
// (internal/sched) instead.
package symbolic

import (
	"errors"
	"fmt"

	"repro/internal/constraint"
	"repro/internal/prog"
	"repro/internal/trace"
)

// ErrUnsupported is returned for programs or operations outside the engine's
// symbolic fragment.
var ErrUnsupported = errors.New("symbolic: unsupported")

// symVal is a shadow value: a linear expression when exact, or concrete-only
// after a nonlinear operation (classic concolic concretization).
type symVal struct {
	expr  constraint.Expr
	exact bool
}

func concreteVal() symVal { return symVal{} }

func constVal(c int64) symVal {
	return symVal{expr: constraint.Const(c), exact: true}
}

// BranchRecord pairs a dynamic branch event with its path constraint (the
// constraint is in the *taken-direction* sense: it holds for the direction
// the execution went). Exact is false when the condition involved
// concretized values, in which case the constraint is absent.
type BranchRecord struct {
	Event trace.BranchEvent
	Cond  constraint.Constraint
	Exact bool
}

// Path is the result of one concolic run.
type Path struct {
	// Records lists every branch decision with its constraint when exact.
	Records []BranchRecord
	// Outcome is the execution outcome.
	Outcome prog.Outcome
	// Result is the full machine-level result.
	Result prog.Result
	// Input is the concrete input used.
	Input []int64
	// FreshVars is the number of fresh symbolic variables introduced for
	// syscall returns (relaxed consistency); they occupy variable indices
	// NumInputs..NumInputs+FreshVars-1.
	FreshVars int
	// SyscallReturns records concrete syscall returns in call order (used to
	// map fresh-variable solutions back to fault-injection specs).
	SyscallReturns []int64
	// SyscallNums records the syscall numbers in call order.
	SyscallNums []int64
}

// Condition extracts the path condition: the conjunction of exact
// constraints along the path, each oriented in its taken direction.
func (p *Path) Condition() constraint.PathCondition {
	out := make(constraint.PathCondition, 0, len(p.Records))
	for _, r := range p.Records {
		if r.Exact {
			out = append(out, r.Cond)
		}
	}
	return out
}

// Events extracts the branch events.
func (p *Path) Events() []trace.BranchEvent {
	out := make([]trace.BranchEvent, len(p.Records))
	for i, r := range p.Records {
		out[i] = r.Event
	}
	return out
}

// Config parameterizes the engine.
type Config struct {
	// Syscalls is the concrete environment model; nil means zeros.
	Syscalls prog.SyscallModel
	// SymbolicSyscalls enables relaxed consistency: each syscall return
	// becomes a fresh symbolic variable (its concrete value still drives the
	// run).
	SymbolicSyscalls bool
}

// Engine performs concolic runs of one program.
type Engine struct {
	prog *prog.Program
	cfg  Config
}

// New creates an engine for p. It returns ErrUnsupported for multi-threaded
// programs.
func New(p *prog.Program, cfg Config) (*Engine, error) {
	if p.NumThreads() > 1 {
		return nil, fmt.Errorf("%w: program %q has %d threads", ErrUnsupported, p.Name, p.NumThreads())
	}
	if cfg.Syscalls == nil {
		cfg.Syscalls = &prog.DeterministicSyscalls{Seed: 0}
	}
	return &Engine{prog: p, cfg: cfg}, nil
}

// Run executes the program concolically on input.
func (e *Engine) Run(input []int64) (*Path, error) {
	return e.run(input, nil)
}

// RunForced executes concolically while forcing the direction of
// input-dependent branches to follow the given event prefix (deterministic
// branches evaluate naturally). It is used to drive execution down a
// specific tree prefix regardless of the concrete input.
func (e *Engine) RunForced(input []int64, forced []trace.BranchEvent) (*Path, error) {
	return e.run(input, forced)
}

func (e *Engine) run(input []int64, forced []trace.BranchEvent) (*Path, error) {
	if len(input) != e.prog.NumInputs {
		return nil, fmt.Errorf("symbolic: input arity %d, want %d", len(input), e.prog.NumInputs)
	}
	st := &interp{
		p:      e.prog,
		cfg:    &e.cfg,
		input:  input,
		regs:   make([]int64, prog.NumRegs),
		sregs:  make([]symVal, prog.NumRegs),
		mem:    make([]int64, e.prog.MemSize),
		smem:   make([]symVal, e.prog.MemSize),
		forced: forced,
	}
	for i := range st.sregs {
		st.sregs[i] = constVal(0)
	}
	for i := range st.smem {
		st.smem[i] = constVal(0)
	}
	return st.exec()
}

// interp is the lockstep concrete+symbolic interpreter.
type interp struct {
	p     *prog.Program
	cfg   *Config
	input []int64

	regs  []int64
	sregs []symVal
	mem   []int64
	smem  []symVal

	pc      int
	steps   int64
	nsysc   int
	fresh   int
	sysret  []int64
	sysnums []int64

	forced    []trace.BranchEvent
	forcedPos int

	records []BranchRecord
}

func (st *interp) exec() (*Path, error) {
	st.pc = st.p.Entries[0]
	code := st.p.Code
	for st.steps < prog.DefaultMaxSteps {
		in := code[st.pc]
		st.steps++
		next := st.pc + 1
		switch in.Op {
		case prog.OpNop, prog.OpYield:
		case prog.OpConst:
			st.setReg(int(in.A), in.Imm, constVal(in.Imm))
		case prog.OpMov:
			st.setReg(int(in.A), st.regs[in.B], st.sregs[in.B])
		case prog.OpAdd:
			st.binLinear(in, func(a, b int64) int64 { return a + b },
				func(a, b constraint.Expr) constraint.Expr { return a.Add(b) })
		case prog.OpSub:
			st.binLinear(in, func(a, b int64) int64 { return a - b },
				func(a, b constraint.Expr) constraint.Expr { return a.Sub(b) })
		case prog.OpMul:
			st.binMul(in)
		case prog.OpDiv:
			if st.regs[in.C] == 0 {
				return st.finish(prog.Result{Outcome: prog.OutcomeCrash, FaultPC: st.pc, FaultInfo: "integer divide by zero", AssertID: -1}), nil
			}
			st.setReg(int(in.A), st.regs[in.B]/st.regs[in.C], concreteVal())
		case prog.OpMod:
			if st.regs[in.C] == 0 {
				return st.finish(prog.Result{Outcome: prog.OutcomeCrash, FaultPC: st.pc, FaultInfo: "integer modulo by zero", AssertID: -1}), nil
			}
			st.setReg(int(in.A), st.regs[in.B]%st.regs[in.C], concreteVal())
		case prog.OpAnd:
			st.setReg(int(in.A), st.regs[in.B]&st.regs[in.C], concreteVal())
		case prog.OpOr:
			st.setReg(int(in.A), st.regs[in.B]|st.regs[in.C], concreteVal())
		case prog.OpXor:
			st.setReg(int(in.A), st.regs[in.B]^st.regs[in.C], concreteVal())
		case prog.OpAddImm:
			v := st.regs[in.B] + in.Imm
			sv := concreteVal()
			if st.sregs[in.B].exact {
				sv = symVal{expr: st.sregs[in.B].expr.AddConst(in.Imm), exact: true}
			}
			st.setReg(int(in.A), v, sv)
		case prog.OpInput:
			idx := int(in.Imm)
			st.setReg(int(in.A), st.input[idx], symVal{expr: constraint.Var(idx), exact: true})
		case prog.OpLoad:
			addr := int(in.Imm)
			st.setReg(int(in.A), st.mem[addr], st.smem[addr])
		case prog.OpStore:
			st.mem[in.Imm] = st.regs[in.A]
			st.smem[in.Imm] = st.sregs[in.A]
		case prog.OpLoadR:
			addr := st.regs[in.B]
			if addr < 0 || addr >= int64(len(st.mem)) {
				return st.finish(prog.Result{Outcome: prog.OutcomeCrash, FaultPC: st.pc, FaultInfo: "memory load out of bounds", AssertID: -1}), nil
			}
			st.setReg(int(in.A), st.mem[addr], st.smem[addr])
		case prog.OpStoreR:
			addr := st.regs[in.B]
			if addr < 0 || addr >= int64(len(st.mem)) {
				return st.finish(prog.Result{Outcome: prog.OutcomeCrash, FaultPC: st.pc, FaultInfo: "memory store out of bounds", AssertID: -1}), nil
			}
			st.mem[addr] = st.regs[in.A]
			st.smem[addr] = st.sregs[in.A]
		case prog.OpJmp:
			next = int(in.Target)
		case prog.OpBr, prog.OpBrImm:
			taken := st.branch(in)
			if taken {
				next = int(in.Target)
			}
		case prog.OpSyscall:
			ret := st.cfg.Syscalls.Call(0, st.nsysc, in.Imm, st.regs[in.B])
			st.nsysc++
			st.sysret = append(st.sysret, ret)
			st.sysnums = append(st.sysnums, in.Imm)
			sv := concreteVal()
			if st.cfg.SymbolicSyscalls {
				idx := st.p.NumInputs + st.fresh
				st.fresh++
				sv = symVal{expr: constraint.Var(idx), exact: true}
			}
			st.setReg(int(in.A), ret, sv)
		case prog.OpLock, prog.OpUnlock:
			// Single-threaded: locks are uncontended no-ops for analysis.
		case prog.OpAssert:
			if st.regs[in.A] == 0 {
				return st.finish(prog.Result{Outcome: prog.OutcomeAssertFail, FaultPC: st.pc,
					FaultInfo: fmt.Sprintf("assertion #%d failed", in.Imm), AssertID: in.Imm}), nil
			}
		case prog.OpHalt:
			return st.finish(prog.Result{Outcome: prog.OutcomeOK, FaultPC: -1, AssertID: -1}), nil
		default:
			return st.finish(prog.Result{Outcome: prog.OutcomeCrash, FaultPC: st.pc, FaultInfo: "illegal instruction", AssertID: -1}), nil
		}
		st.pc = next
	}
	return st.finish(prog.Result{Outcome: prog.OutcomeHang, FaultPC: -1, AssertID: -1, FaultInfo: "fuel exhausted"}), nil
}

func (st *interp) finish(res prog.Result) *Path {
	res.Steps = st.steps
	return &Path{
		Records:        st.records,
		Outcome:        res.Outcome,
		Result:         res,
		Input:          append([]int64(nil), st.input...),
		FreshVars:      st.fresh,
		SyscallReturns: append([]int64(nil), st.sysret...),
		SyscallNums:    append([]int64(nil), st.sysnums...),
	}
}

func (st *interp) setReg(r int, v int64, sv symVal) {
	st.regs[r] = v
	st.sregs[r] = sv
}

func (st *interp) binLinear(in prog.Instr, cf func(a, b int64) int64, sf func(a, b constraint.Expr) constraint.Expr) {
	v := cf(st.regs[in.B], st.regs[in.C])
	sv := concreteVal()
	if st.sregs[in.B].exact && st.sregs[in.C].exact {
		sv = symVal{expr: sf(st.sregs[in.B].expr, st.sregs[in.C].expr), exact: true}
	}
	st.setReg(int(in.A), v, sv)
}

func (st *interp) binMul(in prog.Instr) {
	v := st.regs[in.B] * st.regs[in.C]
	sv := concreteVal()
	sb, sc := st.sregs[in.B], st.sregs[in.C]
	switch {
	case sb.exact && sc.exact && sb.expr.IsConst():
		sv = symVal{expr: sc.expr.MulConst(sb.expr.Const), exact: true}
	case sb.exact && sc.exact && sc.expr.IsConst():
		sv = symVal{expr: sb.expr.MulConst(sc.expr.Const), exact: true}
	}
	st.setReg(int(in.A), v, sv)
}

// branch evaluates a branch concretely, applies forcing for input-dependent
// branches when a forced prefix is active, records the event and constraint,
// and returns the final direction.
func (st *interp) branch(in prog.Instr) bool {
	var rhsC int64
	var rhsS symVal
	if in.Op == prog.OpBr {
		rhsC = st.regs[in.B]
		rhsS = st.sregs[in.B]
	} else {
		rhsC = in.Imm
		rhsS = constVal(in.Imm)
	}
	lhsC := st.regs[in.A]
	lhsS := st.sregs[in.A]

	taken := in.Cond.Eval(lhsC, rhsC)
	id := int(in.BranchID)

	if st.forced != nil && st.p.InputDependent(id) && st.forcedPos < len(st.forced) {
		rec := st.forced[st.forcedPos]
		st.forcedPos++
		if rec.ID == in.BranchID {
			taken = rec.Taken
		}
	}

	exact := lhsS.exact && rhsS.exact
	var cond constraint.Constraint
	if exact {
		cmp := in.Cond
		if !taken {
			cmp = cmp.Negate()
		}
		cond = constraint.NewConstraint(lhsS.expr, cmp, rhsS.expr)
	}
	st.records = append(st.records, BranchRecord{
		Event: trace.BranchEvent{ID: in.BranchID, Taken: taken},
		Cond:  cond,
		Exact: exact,
	})
	return taken
}

// modelToInput materializes a solver model into a full input vector, filling
// unconstrained variables from the base input.
func (e *Engine) modelToInput(model constraint.Solution, base []int64) []int64 {
	out := make([]int64, e.prog.NumInputs)
	copy(out, base)
	for v, val := range model {
		if v < e.prog.NumInputs {
			out[v] = val
		}
	}
	return out
}
