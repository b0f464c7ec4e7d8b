package prog

import "fmt"

// Mem returns a copy of shared memory (for tests and diagnostics).
func (m *Machine) Mem() []int64 {
	out := make([]int64, len(m.mem))
	copy(out, m.mem)
	return out
}

// Reg returns register r of thread tid (for tests and diagnostics).
func (m *Machine) Reg(tid int, r int) int64 { return m.threads[tid].regs[r] }

// Sub emits regs[dst] = regs[x] - regs[y].
func (b *Builder) Sub(dst, x, y int) *Builder {
	return b.emit(Instr{Op: OpSub, A: reg(dst), B: reg(x), C: reg(y)})
}

// LoadR emits regs[dst] = mem[regs[addrReg]].
func (b *Builder) LoadR(dst, addrReg int) *Builder {
	return b.emit(Instr{Op: OpLoadR, A: reg(dst), B: reg(addrReg)})
}

// Disassemble renders the whole program for debugging.
func (p *Program) Disassemble() string {
	out := fmt.Sprintf("; program %q id=%s threads=%d inputs=%d locks=%d mem=%d branches=%d (%d input-dep)\n",
		p.Name, p.ID, len(p.Entries), p.NumInputs, p.NumLocks, p.MemSize,
		p.NumBranches(), p.NumInputDependentBranches())
	for pc, in := range p.Code {
		out += fmt.Sprintf("%4d: %s\n", pc, in)
	}
	return out
}
