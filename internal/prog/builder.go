package prog

import "fmt"

// Builder assembles a Program instruction by instruction with label-based
// control flow. It is the hand-written front end used by examples, tests,
// and the generator in internal/proggen.
type Builder struct {
	name      string
	numInputs int
	numLocks  int
	memSize   int
	code      []Instr
	entries   []int
	labels    []int         // label id -> pc, or -1 while unresolved
	pending   map[int][]int // label id -> pcs of instructions to patch
	errs      []error
}

// Label is an opaque jump target handle.
type Label int

// NewBuilder starts a program with the given name and input arity.
func NewBuilder(name string, numInputs int) *Builder {
	return &Builder{
		name:      name,
		numInputs: numInputs,
		pending:   make(map[int][]int),
	}
}

// SetLocks declares the number of lock slots.
func (b *Builder) SetLocks(n int) *Builder { b.numLocks = n; return b }

// SetMem declares the shared-memory size.
func (b *Builder) SetMem(n int) *Builder { b.memSize = n; return b }

// Thread marks the current position as the entry point of a new thread and
// returns its index.
func (b *Builder) Thread() int {
	b.entries = append(b.entries, len(b.code))
	return len(b.entries) - 1
}

// NewLabel allocates an unresolved label.
func (b *Builder) NewLabel() Label {
	b.labels = append(b.labels, -1)
	return Label(len(b.labels) - 1)
}

// Bind resolves the label to the current position.
func (b *Builder) Bind(l Label) *Builder {
	if b.labels[int(l)] != -1 {
		b.errs = append(b.errs, fmt.Errorf("label %d bound twice", l))
		return b
	}
	pc := len(b.code)
	b.labels[int(l)] = pc
	for _, patchPC := range b.pending[int(l)] {
		b.code[patchPC].Target = int32(pc)
	}
	delete(b.pending, int(l))
	return b
}

// Here returns a label bound to the current position.
func (b *Builder) Here() Label {
	l := b.NewLabel()
	b.Bind(l)
	return l
}

// Len returns the number of instructions emitted so far — the pc of the next
// instruction.
func (b *Builder) Len() int { return len(b.code) }

func (b *Builder) emit(in Instr) *Builder {
	b.code = append(b.code, in)
	return b
}

func (b *Builder) emitJump(in Instr, l Label) *Builder {
	if target := b.labels[int(l)]; target != -1 {
		in.Target = int32(target)
	} else {
		b.pending[int(l)] = append(b.pending[int(l)], len(b.code))
	}
	return b.emit(in)
}

func reg(r int) uint8 { return uint8(r) }

// Const emits regs[dst] = v.
func (b *Builder) Const(dst int, v int64) *Builder {
	return b.emit(Instr{Op: OpConst, A: reg(dst), Imm: v})
}

// Add emits regs[dst] = regs[x] + regs[y].
func (b *Builder) Add(dst, x, y int) *Builder {
	return b.emit(Instr{Op: OpAdd, A: reg(dst), B: reg(x), C: reg(y)})
}

// Mul emits regs[dst] = regs[x] * regs[y].
func (b *Builder) Mul(dst, x, y int) *Builder {
	return b.emit(Instr{Op: OpMul, A: reg(dst), B: reg(x), C: reg(y)})
}

// Div emits regs[dst] = regs[x] / regs[y] (crashes when regs[y] == 0).
func (b *Builder) Div(dst, x, y int) *Builder {
	return b.emit(Instr{Op: OpDiv, A: reg(dst), B: reg(x), C: reg(y)})
}

// Mod emits regs[dst] = regs[x] % regs[y] (crashes when regs[y] == 0).
func (b *Builder) Mod(dst, x, y int) *Builder {
	return b.emit(Instr{Op: OpMod, A: reg(dst), B: reg(x), C: reg(y)})
}

// AddImm emits regs[dst] = regs[src] + v.
func (b *Builder) AddImm(dst, src int, v int64) *Builder {
	return b.emit(Instr{Op: OpAddImm, A: reg(dst), B: reg(src), Imm: v})
}

// Input emits regs[dst] = input[idx].
func (b *Builder) Input(dst, idx int) *Builder {
	return b.emit(Instr{Op: OpInput, A: reg(dst), Imm: int64(idx)})
}

// Load emits regs[dst] = mem[addr].
func (b *Builder) Load(dst, addr int) *Builder {
	return b.emit(Instr{Op: OpLoad, A: reg(dst), Imm: int64(addr)})
}

// Store emits mem[addr] = regs[src].
func (b *Builder) Store(addr, src int) *Builder {
	return b.emit(Instr{Op: OpStore, A: reg(src), Imm: int64(addr)})
}

// Jmp emits an unconditional jump to l.
func (b *Builder) Jmp(l Label) *Builder {
	return b.emitJump(Instr{Op: OpJmp}, l)
}

// Br emits: if regs[x] <cond> regs[y] jump to l.
func (b *Builder) Br(x int, cond Cmp, y int, l Label) *Builder {
	return b.emitJump(Instr{Op: OpBr, A: reg(x), B: reg(y), Cond: cond}, l)
}

// BrImm emits: if regs[x] <cond> v jump to l.
func (b *Builder) BrImm(x int, cond Cmp, v int64, l Label) *Builder {
	return b.emitJump(Instr{Op: OpBrImm, A: reg(x), Cond: cond, Imm: v}, l)
}

// Syscall emits regs[dst] = syscall(sysno, regs[arg]).
func (b *Builder) Syscall(dst int, sysno int64, arg int) *Builder {
	return b.emit(Instr{Op: OpSyscall, A: reg(dst), B: reg(arg), Imm: sysno})
}

// Lock emits an acquisition of lock id.
func (b *Builder) Lock(id int) *Builder {
	if id >= b.numLocks {
		b.numLocks = id + 1
	}
	return b.emit(Instr{Op: OpLock, Imm: int64(id)})
}

// Unlock emits a release of lock id.
func (b *Builder) Unlock(id int) *Builder {
	if id >= b.numLocks {
		b.numLocks = id + 1
	}
	return b.emit(Instr{Op: OpUnlock, Imm: int64(id)})
}

// Yield emits a scheduling hint.
func (b *Builder) Yield() *Builder { return b.emit(Instr{Op: OpYield}) }

// Assert emits: fail with assertion id when regs[x] == 0.
func (b *Builder) Assert(x int, id int64) *Builder {
	return b.emit(Instr{Op: OpAssert, A: reg(x), Imm: id})
}

// Halt terminates the current thread.
func (b *Builder) Halt() *Builder { return b.emit(Instr{Op: OpHalt}) }

// Build finalizes the program: resolves labels, assigns branch ids, runs the
// taint analysis, validates, and computes the content hash.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.pending) > 0 {
		for l := range b.pending {
			return nil, fmt.Errorf("program %q: label %d never bound", b.name, l)
		}
	}
	if len(b.entries) == 0 {
		// Single implicit thread starting at pc 0.
		b.entries = []int{0}
	}
	p := &Program{
		Name:      b.name,
		Code:      append([]Instr(nil), b.code...),
		Entries:   append([]int(nil), b.entries...),
		NumInputs: b.numInputs,
		NumLocks:  b.numLocks,
		MemSize:   b.memSize,
	}
	if err := p.finalize(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build for tests and examples where failure is programmer
// error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
