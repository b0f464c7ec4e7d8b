// Package proggen generates target programs with planted bugs for SoftBorg's
// experiments: nested input-dependent branching (so execution trees have
// realistic shape), loops, syscalls, and failure sites that only rare inputs
// or rare thread interleavings reach — the regime where collective
// information recycling beats in-house testing.
package proggen

import (
	"fmt"

	"repro/internal/prog"
	"repro/internal/stats"
)

// BugKind classifies a planted bug.
type BugKind uint8

// Planted bug kinds.
const (
	// BugCrash crashes (div-by-zero) when an input falls in a narrow range.
	BugCrash BugKind = iota + 1
	// BugAssert fails an assertion in a narrow input range.
	BugAssert
	// BugHang spins past the fuel limit in a narrow input range.
	BugHang
	// BugSyscallCrash crashes when a syscall returns a rare value
	// (environment-dependent; reachable through fault injection).
	BugSyscallCrash
	// BugDeadlock adds a pair of threads that deadlock under rare schedules.
	BugDeadlock
)

var bugNames = map[BugKind]string{
	BugCrash:        "crash",
	BugAssert:       "assert",
	BugHang:         "hang",
	BugSyscallCrash: "syscall-crash",
	BugDeadlock:     "deadlock",
}

// String returns the bug-kind label.
func (k BugKind) String() string {
	if s, ok := bugNames[k]; ok {
		return s
	}
	return fmt.Sprintf("bug(%d)", uint8(k))
}

// Bug is the ground truth for one planted bug.
type Bug struct {
	Kind BugKind
	// Input is the input index the trigger reads (input-triggered bugs).
	Input int
	// TriggerLo..TriggerHi is the inclusive triggering input range.
	TriggerLo, TriggerHi int64
	// FaultPC is the program counter of the faulting instruction (crash,
	// assert) or the spin loop head (hang); -1 for deadlocks.
	FaultPC int
	// AssertID identifies assertion bugs; -1 otherwise.
	AssertID int64
	// Sysno is the trigger syscall for BugSyscallCrash; -1 otherwise.
	Sysno int64
	// SysTriggerLo..SysTriggerHi is the triggering syscall-return range.
	SysTriggerLo, SysTriggerHi int64
}

// Triggered reports whether the given input vector triggers this
// (input-triggered) bug.
func (b Bug) Triggered(input []int64) bool {
	switch b.Kind {
	case BugCrash, BugAssert, BugHang:
		if b.Input >= len(input) {
			return false
		}
		v := input[b.Input]
		return v >= b.TriggerLo && v <= b.TriggerHi
	default:
		return false
	}
}

// Spec parameterizes generation.
type Spec struct {
	// Seed drives all randomness; same spec, same program.
	Seed uint64
	// Name labels the program; defaults to "gen-<seed>".
	Name string
	// NumInputs is the input arity (>=1).
	NumInputs int
	// Depth is the nesting depth of the input-branch tree (1..8).
	Depth int
	// Loops adds that many bounded loops.
	Loops int
	// Syscalls adds that many syscall-dependent branches.
	Syscalls int
	// DetBranches adds that many deterministic (input-independent) branch
	// diamonds — the branches the pod's external-only capture mode may skip
	// and the hive reconstructs (paper §3.1).
	DetBranches int
	// Bugs are planted in distinct rare leaves, in order.
	Bugs []BugKind
	// Domain is the input domain [0, Domain); defaults to 256. Bug trigger
	// ranges are carved from it.
	Domain int64
	// TriggerWidth is the width of each bug's trigger range; defaults to 4
	// (i.e. probability ≈ TriggerWidth/Domain per execution under uniform
	// inputs).
	TriggerWidth int64
}

func (s *Spec) normalize() {
	if s.Name == "" {
		s.Name = fmt.Sprintf("gen-%d", s.Seed)
	}
	if s.NumInputs < 1 {
		s.NumInputs = 1
	}
	if s.Depth < 1 {
		s.Depth = 3
	}
	if s.Depth > 8 {
		s.Depth = 8
	}
	if s.Domain <= 0 {
		s.Domain = 256
	}
	if s.TriggerWidth <= 0 {
		s.TriggerWidth = 4
	}
}

// Generate builds a program per spec and returns it with the planted-bug
// ground truth.
func Generate(spec Spec) (*prog.Program, []Bug, error) {
	spec.normalize()
	g := &gen{
		spec: spec,
		rng:  stats.NewRNG(spec.Seed),
		b:    prog.NewBuilder(spec.Name, spec.NumInputs),
	}
	p, bugs, err := g.build()
	if err != nil {
		return nil, nil, fmt.Errorf("proggen: %w", err)
	}
	return p, bugs, nil
}

// CorpusSpec is the shared recipe for multi-process deployments (cmd/hive
// and cmd/pod regenerate identical programs from the same (seed, index), so
// program IDs agree across machines without shipping code).
func CorpusSpec(seed uint64, index int) Spec {
	return Spec{
		Seed: seed*1000 + uint64(index), Depth: 5, Loops: 1, Syscalls: 1,
		NumInputs: 1, TriggerWidth: 8, DetBranches: 4,
		Bugs: []BugKind{BugCrash},
	}
}

// MustGenerate is Generate for tests and examples.
func MustGenerate(spec Spec) (*prog.Program, []Bug) {
	p, bugs, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return p, bugs
}

type gen struct {
	spec Spec
	rng  *stats.RNG
	b    *prog.Builder
	bugs []Bug
	// nextBug indexes spec.Bugs: everything before it is planted, or is a
	// kind the input-branch tree does not host.
	nextBug int
	// sysBugs counts the BugSyscallCrash entries no syscall branch has
	// hosted yet.
	sysBugs int
	// leafCount tracks generated leaves for bug placement spacing.
	leafCount int
}

// Register allocation: r0..r3 inputs/scratch, r4 loop counter, r5 syscall
// result, r6..r7 arithmetic.
const (
	rIn    = 0
	rTmp   = 1
	rLoop  = 4
	rSys   = 5
	rConst = 6
	rZero  = 7
	// rDet and rDet2 are reserved for deterministic branches: no generated
	// instruction ever writes external data into them, keeping them
	// untainted under the conservative flow-insensitive analysis.
	rDet  = 8
	rDet2 = 9
)

func (g *gen) build() (*prog.Program, []Bug, error) {
	for _, kind := range g.spec.Bugs {
		if kind == BugSyscallCrash {
			g.sysBugs++
		}
	}

	// Main thread.
	g.b.Thread()

	// Deterministic prologue: branch diamonds on a register that never
	// carries external data (rDet), so taint analysis proves them
	// reconstructible.
	for i := 0; i < g.spec.DetBranches; i++ {
		g.detBranch(int64(i))
	}

	// Branch tree over input 0 (and others round-robin).
	g.branchTree(0, g.spec.Depth, 0, g.spec.Domain)

	// Loops: bounded arithmetic loops over an input.
	for i := 0; i < g.spec.Loops; i++ {
		g.loop(i % g.spec.NumInputs)
	}

	// Syscall-dependent branching.
	for i := 0; i < g.spec.Syscalls; i++ {
		g.syscallBranch(int64(10 + i))
	}

	// Any input-triggered bugs the branch tree did not host get dedicated
	// guarded blocks here, so placement never depends on the tree's shape.
	for g.pendingInputBugs() > 0 {
		kind := g.spec.Bugs[g.nextBug]
		g.nextBug++
		if inputTriggered(kind) {
			g.emitGuardedBug(kind, g.nextBug%g.spec.NumInputs, 0, g.spec.Domain)
		}
	}

	g.b.Halt()

	// Deadlock bugs: appended thread pairs with circular lock order.
	lockBase := 0
	for _, kind := range g.spec.Bugs {
		if kind == BugDeadlock {
			g.deadlockPair(lockBase)
			lockBase += 2
			g.bugs = append(g.bugs, Bug{Kind: BugDeadlock, FaultPC: -1, AssertID: -1, Sysno: -1})
		}
	}

	p, err := g.b.Build()
	if err != nil {
		return nil, nil, err
	}
	// Any input-triggered bugs that never found a leaf are planted... they
	// always find leaves because placement is forced on the last leaves; see
	// placeBugIfPending.
	if g.pendingInputBugs() > 0 {
		return nil, nil, fmt.Errorf("program too small to place %d remaining bugs (increase Depth)", g.pendingInputBugs())
	}
	if g.sysBugs > 0 {
		return nil, nil, fmt.Errorf("no syscall branch left to host %d syscall-crash bugs (increase Syscalls)", g.sysBugs)
	}
	return p, g.bugs, nil
}

// inputTriggered reports whether kind is planted behind an input guard
// (emitGuardedBug); a syscall crash waits for a syscall branch, a deadlock
// for its own thread pair.
func inputTriggered(kind BugKind) bool {
	return kind != BugSyscallCrash && kind != BugDeadlock
}

func (g *gen) pendingInputBugs() int {
	n := 0
	for i := g.nextBug; i < len(g.spec.Bugs); i++ {
		if inputTriggered(g.spec.Bugs[i]) {
			n++
		}
	}
	return n
}

// branchTree emits a binary decision tree of the given depth on input vIdx,
// partitioning [lo, hi) at random thresholds. Leaves get benign arithmetic
// or a planted bug.
func (g *gen) branchTree(vIdx, depth int, lo, hi int64) {
	if depth == 0 || hi-lo < 2*g.spec.TriggerWidth+2 {
		g.leaf(vIdx, lo, hi)
		return
	}
	mid := lo + 1 + g.rng.Int63n(hi-lo-1)
	elseL := g.b.NewLabel()
	endL := g.b.NewLabel()
	g.b.Input(rIn, vIdx)
	g.b.BrImm(rIn, prog.CmpGE, mid, elseL)
	g.branchTree((vIdx+1)%g.spec.NumInputs, depth-1, lo, mid)
	g.b.Jmp(endL)
	g.b.Bind(elseL)
	g.branchTree((vIdx+1)%g.spec.NumInputs, depth-1, mid, hi)
	g.b.Bind(endL)
}

// leaf emits either a planted bug guarded to a narrow sub-range of [lo, hi)
// on input vIdx, or benign arithmetic.
func (g *gen) leaf(vIdx int, lo, hi int64) {
	g.leafCount++
	kind, ok := g.takeInputBug()
	if !ok {
		// Benign: a little arithmetic so leaves differ.
		g.b.Const(rConst, g.rng.Int63n(100)+1)
		g.b.Input(rIn, vIdx)
		g.b.Add(rTmp, rIn, rConst)
		return
	}

	g.emitGuardedBug(kind, vIdx, lo, hi)
}

// emitGuardedBug plants a bug guarded to a narrow trigger range carved from
// [lo, hi) on input vIdx, recording the ground truth.
func (g *gen) emitGuardedBug(kind BugKind, vIdx int, lo, hi int64) {
	width := g.spec.TriggerWidth
	span := hi - lo
	if span < 1 {
		span = 1
	}
	if span < width+2 {
		width = span / 2
		if width < 1 {
			width = 1
		}
	}
	tlo := lo
	if span > width {
		tlo = lo + g.rng.Int63n(span-width)
	}
	thi := tlo + width - 1

	skip := g.b.NewLabel()
	g.b.Input(rIn, vIdx)
	g.b.BrImm(rIn, prog.CmpLT, tlo, skip)
	g.b.BrImm(rIn, prog.CmpGT, thi, skip)

	bug := Bug{Kind: kind, Input: vIdx, TriggerLo: tlo, TriggerHi: thi, AssertID: -1, Sysno: -1}
	switch kind {
	case BugCrash:
		bug.FaultPC = g.pc() + 1 // the Div below, after Const
		g.b.Const(rZero, 0)
		g.b.Div(rTmp, rZero, rZero)
	case BugAssert:
		bug.AssertID = int64(100 + len(g.bugs))
		bug.FaultPC = g.pc() + 1
		g.b.Const(rZero, 0)
		g.b.Assert(rZero, bug.AssertID)
	case BugHang:
		bug.FaultPC = g.pc()
		spin := g.b.Here()
		g.b.Jmp(spin)
	}
	g.bugs = append(g.bugs, bug)
	g.b.Bind(skip)
}

// takeInputBug pops the next input-triggered bug, forcing placement when the
// remaining leaf budget gets tight.
func (g *gen) takeInputBug() (BugKind, bool) {
	for g.nextBug < len(g.spec.Bugs) && !inputTriggered(g.spec.Bugs[g.nextBug]) {
		g.nextBug++
	}
	if g.nextBug >= len(g.spec.Bugs) {
		return 0, false
	}
	remainingLeaves := (1 << g.spec.Depth) - g.leafCount + 1
	mustPlace := remainingLeaves <= g.pendingInputBugs()
	if !mustPlace && !g.rng.Bool(0.5) {
		return 0, false
	}
	kind := g.spec.Bugs[g.nextBug]
	g.nextBug++
	return kind, true
}

// detBranch emits a branch diamond whose condition is a pure function of
// constants: the VM still takes a dynamic decision (recorded under full
// capture), but taint analysis marks it reconstructible.
func (g *gen) detBranch(k int64) {
	other, end := g.b.NewLabel(), g.b.NewLabel()
	g.b.Const(rDet, k%3)
	g.b.Const(rDet2, 1)
	g.b.Br(rDet, prog.CmpGE, rDet2, other)
	g.b.AddImm(rDet, rDet, 1)
	g.b.Jmp(end)
	g.b.Bind(other)
	g.b.AddImm(rDet, rDet, 2)
	g.b.Bind(end)
}

// loop emits a bounded loop summing up to input[vIdx] % 16 iterations.
func (g *gen) loop(vIdx int) {
	g.b.Input(rIn, vIdx)
	g.b.Const(rConst, 16)
	g.b.Mod(rTmp, rIn, rConst)
	g.b.Const(rLoop, 0)
	head := g.b.Here()
	exit := g.b.NewLabel()
	g.b.Br(rLoop, prog.CmpGE, rTmp, exit)
	g.b.AddImm(rLoop, rLoop, 1)
	g.b.Jmp(head)
	g.b.Bind(exit)
}

// syscallBranch emits a branch on a syscall return, optionally hosting a
// BugSyscallCrash.
func (g *gen) syscallBranch(sysno int64) {
	g.b.Const(rTmp, 1)
	g.b.Syscall(rSys, sysno, rTmp)

	threshold := int64(200 + g.rng.Int63n(40)) // rare under the default model
	skip := g.b.NewLabel()
	g.b.BrImm(rSys, prog.CmpLT, threshold, skip)
	if g.sysBugs > 0 {
		g.sysBugs--
		bug := Bug{
			Kind: BugSyscallCrash, FaultPC: g.pc() + 1, AssertID: -1,
			Sysno: sysno, SysTriggerLo: threshold, SysTriggerHi: 1<<62 - 1,
		}
		g.b.Const(rZero, 0)
		g.b.Div(rTmp, rZero, rZero)
		g.bugs = append(g.bugs, bug)
	} else {
		g.b.AddImm(rTmp, rSys, 1)
	}
	g.b.Bind(skip)
}

// deadlockPair appends two threads with circular lock acquisition over locks
// base and base+1.
func (g *gen) deadlockPair(base int) {
	g.b.Thread()
	g.b.Lock(base).Yield().Lock(base + 1).Unlock(base + 1).Unlock(base).Halt()
	g.b.Thread()
	g.b.Lock(base + 1).Yield().Lock(base).Unlock(base).Unlock(base + 1).Halt()
}

// pc returns the next instruction's position.
func (g *gen) pc() int { return g.b.Len() }
