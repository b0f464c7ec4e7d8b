// Package prog implements the target-program substrate for SoftBorg: a
// deterministic, multi-threaded register virtual machine.
//
// The paper instruments real binaries (Pin / AspectJ / S2E). Offline and in
// pure Go we instead make the "programs" SoftBorg observes be programs for
// this VM. The substitution preserves the behaviour SoftBorg consumes: the
// VM emits exactly the execution by-products §3.1 of the paper enumerates —
// branch directions, lock acquire/release events, system-call return values,
// thread scheduling decisions, and an outcome label — through an observer
// interface, and execution is fully deterministic given (input, schedule,
// syscall model), which is the property the paper's trace-reconstruction
// argument relies on.
package prog

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// NumRegs is the number of general-purpose registers per thread.
const NumRegs = 16

// Op identifies a VM instruction opcode.
type Op uint8

// Instruction opcodes. Arithmetic ops compute A = B op C. Control flow uses
// Target; OpBr/OpBrImm are the only branch instructions and each static
// branch carries a unique BranchID assigned by Finalize.
const (
	OpNop     Op = iota + 1
	OpConst      // regs[A] = Imm
	OpMov        // regs[A] = regs[B]
	OpAdd        // regs[A] = regs[B] + regs[C]
	OpSub        // regs[A] = regs[B] - regs[C]
	OpMul        // regs[A] = regs[B] * regs[C]
	OpDiv        // regs[A] = regs[B] / regs[C]; crash when regs[C] == 0
	OpMod        // regs[A] = regs[B] % regs[C]; crash when regs[C] == 0
	OpAnd        // regs[A] = regs[B] & regs[C]
	OpOr         // regs[A] = regs[B] | regs[C]
	OpXor        // regs[A] = regs[B] ^ regs[C]
	OpAddImm     // regs[A] = regs[B] + Imm
	OpInput      // regs[A] = input[Imm]
	OpLoad       // regs[A] = mem[Imm] (shared memory)
	OpStore      // mem[Imm] = regs[A]
	OpLoadR      // regs[A] = mem[regs[B]]; crash when out of bounds
	OpStoreR     // mem[regs[B]] = regs[A]; crash when out of bounds
	OpJmp        // pc = Target
	OpBr         // if regs[A] <Cond> regs[B] then pc = Target (taken) else fall through
	OpBrImm      // if regs[A] <Cond> Imm then pc = Target (taken) else fall through
	OpSyscall    // regs[A] = syscall(Imm /*sysno*/, regs[B] /*arg*/)
	OpLock       // acquire lock Imm; blocks while held by another thread
	OpUnlock     // release lock Imm; crash when not held by this thread
	OpYield      // scheduling hint; no semantic effect
	OpAssert     // if regs[A] == 0 then assertion failure (Imm = assert id)
	OpHalt       // thread terminates
)

var opNames = map[Op]string{
	OpNop: "nop", OpConst: "const", OpMov: "mov", OpAdd: "add", OpSub: "sub",
	OpMul: "mul", OpDiv: "div", OpMod: "mod", OpAnd: "and", OpOr: "or",
	OpXor: "xor", OpAddImm: "addi", OpInput: "input", OpLoad: "load",
	OpStore: "store", OpLoadR: "loadr", OpStoreR: "storer", OpJmp: "jmp",
	OpBr: "br", OpBrImm: "bri", OpSyscall: "syscall", OpLock: "lock",
	OpUnlock: "unlock", OpYield: "yield", OpAssert: "assert", OpHalt: "halt",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Cmp is a comparison condition used by branch instructions.
type Cmp uint8

// Comparison conditions.
const (
	CmpEQ Cmp = iota + 1
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

var cmpNames = map[Cmp]string{
	CmpEQ: "==", CmpNE: "!=", CmpLT: "<", CmpLE: "<=", CmpGT: ">", CmpGE: ">=",
}

// String returns the comparison operator spelling.
func (c Cmp) String() string {
	if s, ok := cmpNames[c]; ok {
		return s
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// Eval applies the comparison to two values.
func (c Cmp) Eval(a, b int64) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	default:
		return false
	}
}

// Negate returns the complementary condition.
func (c Cmp) Negate() Cmp {
	switch c {
	case CmpEQ:
		return CmpNE
	case CmpNE:
		return CmpEQ
	case CmpLT:
		return CmpGE
	case CmpLE:
		return CmpGT
	case CmpGT:
		return CmpLE
	case CmpGE:
		return CmpLT
	default:
		return c
	}
}

// Instr is one VM instruction. Field use depends on Op; unused fields are
// zero. BranchID is -1 for non-branch instructions and a dense index
// (assigned by Finalize) for OpBr/OpBrImm.
type Instr struct {
	Op       Op
	A, B, C  uint8
	Cond     Cmp
	Imm      int64
	Target   int32
	BranchID int32
}

// String renders the instruction in a compact assembly-like syntax.
func (in Instr) String() string {
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("const r%d, %d", in.A, in.Imm)
	case OpMov:
		return fmt.Sprintf("mov r%d, r%d", in.A, in.B)
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.A, in.B, in.C)
	case OpAddImm:
		return fmt.Sprintf("addi r%d, r%d, %d", in.A, in.B, in.Imm)
	case OpInput:
		return fmt.Sprintf("input r%d, in[%d]", in.A, in.Imm)
	case OpLoad:
		return fmt.Sprintf("load r%d, mem[%d]", in.A, in.Imm)
	case OpStore:
		return fmt.Sprintf("store mem[%d], r%d", in.Imm, in.A)
	case OpLoadR:
		return fmt.Sprintf("loadr r%d, mem[r%d]", in.A, in.B)
	case OpStoreR:
		return fmt.Sprintf("storer mem[r%d], r%d", in.B, in.A)
	case OpJmp:
		return fmt.Sprintf("jmp %d", in.Target)
	case OpBr:
		return fmt.Sprintf("br#%d r%d %s r%d -> %d", in.BranchID, in.A, in.Cond, in.B, in.Target)
	case OpBrImm:
		return fmt.Sprintf("bri#%d r%d %s %d -> %d", in.BranchID, in.A, in.Cond, in.Imm, in.Target)
	case OpSyscall:
		return fmt.Sprintf("syscall r%d, sys%d(r%d)", in.A, in.Imm, in.B)
	case OpLock:
		return fmt.Sprintf("lock L%d", in.Imm)
	case OpUnlock:
		return fmt.Sprintf("unlock L%d", in.Imm)
	case OpAssert:
		return fmt.Sprintf("assert r%d (#%d)", in.A, in.Imm)
	case OpYield, OpHalt, OpNop:
		return in.Op.String()
	default:
		return fmt.Sprintf("%s A=%d B=%d C=%d Imm=%d", in.Op, in.A, in.B, in.C, in.Imm)
	}
}

// Program is an immutable, finalized VM program: code shared by one or more
// threads, each starting at its own entry point.
type Program struct {
	// Name is a human-readable label.
	Name string
	// ID is a stable content hash used as the program identity on the wire
	// and in the hive's per-program state.
	ID string
	// Code is the instruction sequence.
	Code []Instr
	// Entries holds one entry pc per thread.
	Entries []int
	// NumInputs is the size of the input vector the program reads.
	NumInputs int
	// NumLocks is the number of lock slots.
	NumLocks int
	// MemSize is the size of the shared memory array.
	MemSize int

	// branchPCs maps BranchID -> pc of the branch instruction.
	branchPCs []int
	// inputDep marks BranchIDs whose condition (transitively) depends on
	// program-external data: inputs, syscall returns, or shared memory.
	inputDep []bool
}

// NumBranches returns the number of static branch instructions.
func (p *Program) NumBranches() int { return len(p.branchPCs) }

// InputDependent reports whether the branch's condition depends on
// program-external data (inputs, syscall returns, shared memory). Branches
// that do not are deterministic once external events are fixed and can be
// reconstructed by the hive instead of being recorded (paper §3.1).
func (p *Program) InputDependent(id int) bool { return p.inputDep[id] }

// NumInputDependentBranches returns how many branches are input-dependent.
func (p *Program) NumInputDependentBranches() int {
	n := 0
	for _, d := range p.inputDep {
		if d {
			n++
		}
	}
	return n
}

// NumThreads returns the number of threads the program starts with.
func (p *Program) NumThreads() int { return len(p.Entries) }

// Validate checks structural well-formedness: jump targets and register,
// input, lock, and memory indices in range. Finalize calls it; it is
// exported so loaded/deserialized programs can be re-checked.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("program %q: empty code", p.Name)
	}
	if len(p.Entries) == 0 {
		return fmt.Errorf("program %q: no threads", p.Name)
	}
	for i, e := range p.Entries {
		if e < 0 || e >= len(p.Code) {
			return fmt.Errorf("program %q: thread %d entry %d out of range", p.Name, i, e)
		}
	}
	for pc, in := range p.Code {
		if err := p.validateInstr(pc, in); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) validateInstr(pc int, in Instr) error {
	bad := func(format string, args ...any) error {
		prefix := fmt.Sprintf("program %q: pc %d (%s): ", p.Name, pc, in)
		return fmt.Errorf(prefix+format, args...)
	}
	if int(in.A) >= NumRegs || int(in.B) >= NumRegs || int(in.C) >= NumRegs {
		return bad("register out of range")
	}
	switch in.Op {
	case OpJmp, OpBr, OpBrImm:
		if in.Target < 0 || int(in.Target) >= len(p.Code) {
			return bad("target %d out of range", in.Target)
		}
	}
	switch in.Op {
	case OpBr, OpBrImm:
		if in.Cond < CmpEQ || in.Cond > CmpGE {
			return bad("invalid condition")
		}
	case OpInput:
		if in.Imm < 0 || int(in.Imm) >= p.NumInputs {
			return bad("input index %d out of range [0,%d)", in.Imm, p.NumInputs)
		}
	case OpLoad, OpStore:
		if in.Imm < 0 || int(in.Imm) >= p.MemSize {
			return bad("memory address %d out of range [0,%d)", in.Imm, p.MemSize)
		}
	case OpLock, OpUnlock:
		if in.Imm < 0 || int(in.Imm) >= p.NumLocks {
			return bad("lock %d out of range [0,%d)", in.Imm, p.NumLocks)
		}
	case OpNop, OpConst, OpMov, OpAdd, OpSub, OpMul, OpDiv, OpMod,
		OpAnd, OpOr, OpXor, OpAddImm, OpLoadR, OpStoreR, OpSyscall,
		OpYield, OpAssert, OpHalt, OpJmp:
		// No further static constraints.
	default:
		return bad("unknown opcode")
	}
	return nil
}

// finalize assigns branch IDs, runs taint analysis, computes the content
// hash, and validates the program. Builders call it; it is idempotent only
// on a fresh program.
func (p *Program) finalize() error {
	p.branchPCs = p.branchPCs[:0]
	for pc := range p.Code {
		switch p.Code[pc].Op {
		case OpBr, OpBrImm:
			p.Code[pc].BranchID = int32(len(p.branchPCs))
			p.branchPCs = append(p.branchPCs, pc)
		default:
			p.Code[pc].BranchID = -1
		}
	}
	if err := p.Validate(); err != nil {
		return err
	}
	p.inputDep = analyzeInputDependence(p)
	p.ID = p.contentHash()
	return nil
}

// contentHash computes a stable hex digest of the program's code and shape.
func (p *Program) contentHash() string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte(p.Name))
	writeInt(int64(p.NumInputs))
	writeInt(int64(p.NumLocks))
	writeInt(int64(p.MemSize))
	for _, e := range p.Entries {
		writeInt(int64(e))
	}
	for _, in := range p.Code {
		h.Write([]byte{byte(in.Op), in.A, in.B, in.C, byte(in.Cond)})
		writeInt(in.Imm)
		writeInt(int64(in.Target))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
