package prog

import (
	"fmt"
	"sort"
)

// Outcome classifies how an execution ended. The pod labels each recorded
// trace with one of these (paper §3.1: the outcome is either determined
// explicitly — crash, deadlock — or inferred from user feedback — a
// force-killed program was likely hung, which the fuel limit models).
type Outcome uint8

// Execution outcomes.
const (
	OutcomeOK Outcome = iota + 1
	OutcomeCrash
	OutcomeAssertFail
	OutcomeDeadlock
	OutcomeHang
)

var outcomeNames = map[Outcome]string{
	OutcomeOK:         "ok",
	OutcomeCrash:      "crash",
	OutcomeAssertFail: "assert-fail",
	OutcomeDeadlock:   "deadlock",
	OutcomeHang:       "hang",
}

// String returns the outcome label.
func (o Outcome) String() string {
	if s, ok := outcomeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// IsFailure reports whether the outcome is a misbehaviour.
func (o Outcome) IsFailure() bool { return o != OutcomeOK }

// ThreadStatus tracks a thread's scheduling state.
type ThreadStatus uint8

// Thread statuses.
const (
	ThreadRunnable ThreadStatus = iota + 1
	ThreadBlocked               // waiting for a lock held by another thread
	ThreadDone
)

// Observer receives execution by-products as they are produced. This is the
// pod's instrumentation interface (paper §3.1); a nil observer disables
// capture entirely, which is the baseline for overhead measurements.
type Observer interface {
	// Branch reports a branch decision: the thread, the static branch id,
	// and whether the branch was taken.
	Branch(tid, branchID int, taken bool)
	// LockAcquire reports a successful lock acquisition at pc.
	LockAcquire(tid, lockID, pc int)
	// LockRelease reports a lock release.
	LockRelease(tid, lockID, pc int)
	// Syscall reports a system call and its return value.
	Syscall(tid int, sysno, arg, ret int64)
	// Schedule reports that the scheduler picked tid for the next step.
	Schedule(tid int)
}

// SyscallModel produces system-call return values: the program-external
// environment. A deterministic model plus the input vector fully determines
// a single-threaded execution.
type SyscallModel interface {
	// Call returns the result of system call sysno with argument arg, made
	// by thread tid as the n-th syscall of this execution.
	Call(tid int, n int, sysno, arg int64) int64
}

// LockGate can veto lock acquisitions. It is the mechanism through which
// deadlock-immunity fixes (paper §3.3, ref [16]) steer the program away from
// schedules that reproduce a known deadlock: a vetoed thread stays at the
// OpLock instruction and retries when next scheduled.
type LockGate interface {
	// Allow reports whether tid may attempt to acquire lockID at pc while
	// holding the locks in held (sorted ascending).
	Allow(tid, lockID, pc int, held []int) bool
}

// Scheduler picks which runnable thread executes the next instruction.
// Implementations live in internal/sched; the interface is defined here so
// the VM has no dependency on scheduling policy.
type Scheduler interface {
	// Pick selects one element of runnable (non-empty, sorted ascending).
	Pick(step int64, runnable []int) int
}

// LockWait describes one edge of a deadlock cycle: a thread blocked at pc
// wanting a lock while holding others.
type LockWait struct {
	TID     int
	PC      int
	Wants   int
	Holding []int
}

// Result describes a completed execution.
type Result struct {
	Outcome Outcome
	// Steps is the total number of instructions executed across threads.
	Steps int64
	// FaultTID and FaultPC locate the failure for Crash/AssertFail.
	FaultTID int
	FaultPC  int
	// FaultInfo is a short human-readable cause ("div by zero", "assert #3").
	FaultInfo string
	// AssertID is the failing assertion's id for AssertFail, else -1.
	AssertID int64
	// DeadlockCycle lists the waits forming the cycle for Deadlock outcomes.
	DeadlockCycle []LockWait
	// Halted counts threads that reached OpHalt.
	Halted int
}

// Config parameterizes one execution of a program.
type Config struct {
	// Input is the program's input vector; its length must equal
	// Program.NumInputs.
	Input []int64
	// Scheduler picks threads. Required for multi-threaded programs; a
	// single-threaded program may leave it nil.
	Scheduler Scheduler
	// Syscalls models the environment. Nil means a zero-returning model.
	Syscalls SyscallModel
	// Observer receives by-products. Nil disables capture.
	Observer Observer
	// Gate may veto lock acquisitions (deadlock immunity). Nil allows all.
	Gate LockGate
	// MaxSteps bounds execution; exceeding it yields OutcomeHang. Zero means
	// DefaultMaxSteps.
	MaxSteps int64
	// BranchOverride, when non-nil, may replace the natural direction of a
	// branch. The hive uses it to reconstruct full paths from external-only
	// traces (forcing recorded directions at input-dependent branches) and
	// the symbolic engine uses it for concolic replay. The observer sees the
	// final (possibly overridden) direction.
	BranchOverride func(tid, branchID int, natural bool) bool
}

// DefaultMaxSteps is the fuel limit used when Config.MaxSteps is zero.
const DefaultMaxSteps = 1 << 20

type thread struct {
	pc      int
	regs    [NumRegs]int64
	status  ThreadStatus
	held    []int // sorted lock ids currently held
	wants   int   // lock id when Blocked
	nsysc   int   // syscalls made so far (index for the model)
	deferCt int   // consecutive gate vetoes (diagnostics)
}

func (t *thread) holdsSorted() []int {
	out := make([]int, len(t.held))
	copy(out, t.held)
	return out
}

// Machine executes one program instance. It is not safe for concurrent use:
// a pod owns one machine and lends it to one run at a time, Restarting it
// before each.
type Machine struct {
	prog     *Program
	cfg      Config
	threads  []thread
	mem      []int64
	lockOwn  []int // lock -> owning tid, or -1
	runnable []int // Run's scratch
	steps    int64
}

// zeroSyscalls is the default environment model: every call returns 0.
type zeroSyscalls struct{}

func (zeroSyscalls) Call(int, int, int64, int64) int64 { return 0 }

// NewMachine prepares an execution of p under cfg. It returns an error when
// the configuration is structurally invalid (wrong input arity, missing
// scheduler for a multi-threaded program).
func NewMachine(p *Program, cfg Config) (*Machine, error) {
	m := &Machine{
		prog:     p,
		threads:  make([]thread, p.NumThreads()),
		mem:      make([]int64, p.MemSize),
		lockOwn:  make([]int, p.NumLocks),
		runnable: make([]int, 0, p.NumThreads()),
	}
	if err := m.Restart(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Restart prepares a new execution of m's program under cfg, with the checks
// NewMachine makes, reusing the machine's thread, memory and lock tables.
func (m *Machine) Restart(cfg Config) error {
	p := m.prog
	if len(cfg.Input) != p.NumInputs {
		return fmt.Errorf("prog: input arity %d, program %q wants %d",
			len(cfg.Input), p.Name, p.NumInputs)
	}
	if p.NumThreads() > 1 && cfg.Scheduler == nil {
		return fmt.Errorf("prog: program %q has %d threads but no scheduler",
			p.Name, p.NumThreads())
	}
	if cfg.Syscalls == nil {
		cfg.Syscalls = zeroSyscalls{}
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	m.cfg = cfg
	m.steps = 0
	clear(m.mem)
	for i := range m.lockOwn {
		m.lockOwn[i] = -1
	}
	for i, entry := range p.Entries {
		m.threads[i] = thread{pc: entry, status: ThreadRunnable, held: m.threads[i].held[:0], wants: -1}
	}
	return nil
}

// Run executes the program to completion and returns the result.
func (m *Machine) Run() Result {
	runnable := m.runnable
	var res Result
	for {
		if m.steps >= m.cfg.MaxSteps {
			return Result{Outcome: OutcomeHang, Steps: m.steps, FaultTID: -1, FaultPC: -1, AssertID: -1,
				FaultInfo: "fuel exhausted (user force-kill inferred)"}
		}
		runnable = runnable[:0]
		anyBlocked := false
		done := 0
		for tid := range m.threads {
			switch m.threads[tid].status {
			case ThreadRunnable:
				runnable = append(runnable, tid)
			case ThreadBlocked:
				anyBlocked = true
			case ThreadDone:
				done++
			}
		}
		if len(runnable) == 0 {
			if anyBlocked {
				return Result{
					Outcome:       OutcomeDeadlock,
					Steps:         m.steps,
					FaultTID:      -1,
					FaultPC:       -1,
					AssertID:      -1,
					FaultInfo:     "all live threads blocked on locks",
					DeadlockCycle: m.deadlockCycle(),
					Halted:        done,
				}
			}
			return Result{Outcome: OutcomeOK, Steps: m.steps, FaultTID: -1, FaultPC: -1, AssertID: -1, Halted: done}
		}

		var tid int
		if len(runnable) == 1 {
			tid = runnable[0]
		} else {
			tid = m.cfg.Scheduler.Pick(m.steps, runnable)
		}
		if m.cfg.Observer != nil {
			m.cfg.Observer.Schedule(tid)
		}
		if m.step(tid, &res) {
			res.Steps = m.steps
			return res
		}
	}
}

// step executes one instruction on thread tid. It reports whether the whole
// execution must stop, and only then writes its result to res: a Result is
// too large to return by value from every instruction.
func (m *Machine) step(tid int, res *Result) bool {
	t := &m.threads[tid]
	in := m.prog.Code[t.pc]
	m.steps++

	fault := func(info string) bool {
		*res = Result{Outcome: OutcomeCrash, FaultTID: tid, FaultPC: t.pc, FaultInfo: info, AssertID: -1}
		return true
	}

	next := t.pc + 1
	switch in.Op {
	case OpNop, OpYield:
		// Yield is purely a scheduling hint.
	case OpConst:
		t.regs[in.A] = in.Imm
	case OpMov:
		t.regs[in.A] = t.regs[in.B]
	case OpAdd:
		t.regs[in.A] = t.regs[in.B] + t.regs[in.C]
	case OpSub:
		t.regs[in.A] = t.regs[in.B] - t.regs[in.C]
	case OpMul:
		t.regs[in.A] = t.regs[in.B] * t.regs[in.C]
	case OpDiv:
		if t.regs[in.C] == 0 {
			return fault("integer divide by zero")
		}
		t.regs[in.A] = t.regs[in.B] / t.regs[in.C]
	case OpMod:
		if t.regs[in.C] == 0 {
			return fault("integer modulo by zero")
		}
		t.regs[in.A] = t.regs[in.B] % t.regs[in.C]
	case OpAnd:
		t.regs[in.A] = t.regs[in.B] & t.regs[in.C]
	case OpOr:
		t.regs[in.A] = t.regs[in.B] | t.regs[in.C]
	case OpXor:
		t.regs[in.A] = t.regs[in.B] ^ t.regs[in.C]
	case OpAddImm:
		t.regs[in.A] = t.regs[in.B] + in.Imm
	case OpInput:
		t.regs[in.A] = m.cfg.Input[in.Imm]
	case OpLoad:
		t.regs[in.A] = m.mem[in.Imm]
	case OpStore:
		m.mem[in.Imm] = t.regs[in.A]
	case OpLoadR:
		addr := t.regs[in.B]
		if addr < 0 || addr >= int64(len(m.mem)) {
			return fault(fmt.Sprintf("memory load out of bounds: %d", addr))
		}
		t.regs[in.A] = m.mem[addr]
	case OpStoreR:
		addr := t.regs[in.B]
		if addr < 0 || addr >= int64(len(m.mem)) {
			return fault(fmt.Sprintf("memory store out of bounds: %d", addr))
		}
		m.mem[addr] = t.regs[in.A]
	case OpJmp:
		next = int(in.Target)
	case OpBr:
		taken := in.Cond.Eval(t.regs[in.A], t.regs[in.B])
		if m.cfg.BranchOverride != nil {
			taken = m.cfg.BranchOverride(tid, int(in.BranchID), taken)
		}
		if m.cfg.Observer != nil {
			m.cfg.Observer.Branch(tid, int(in.BranchID), taken)
		}
		if taken {
			next = int(in.Target)
		}
	case OpBrImm:
		taken := in.Cond.Eval(t.regs[in.A], in.Imm)
		if m.cfg.BranchOverride != nil {
			taken = m.cfg.BranchOverride(tid, int(in.BranchID), taken)
		}
		if m.cfg.Observer != nil {
			m.cfg.Observer.Branch(tid, int(in.BranchID), taken)
		}
		if taken {
			next = int(in.Target)
		}
	case OpSyscall:
		ret := m.cfg.Syscalls.Call(tid, t.nsysc, in.Imm, t.regs[in.B])
		t.nsysc++
		t.regs[in.A] = ret
		if m.cfg.Observer != nil {
			m.cfg.Observer.Syscall(tid, in.Imm, t.regs[in.B], ret)
		}
	case OpLock:
		lockID := int(in.Imm)
		if m.lockOwn[lockID] == tid {
			return fault(fmt.Sprintf("recursive acquisition of L%d", lockID))
		}
		if m.cfg.Gate != nil && !m.cfg.Gate.Allow(tid, lockID, t.pc, t.held) {
			// Vetoed: stay at this pc, remain runnable, retry later. The
			// step still consumed fuel, so a wrong gate cannot livelock
			// forever — it degrades to a Hang, which the hive observes.
			t.deferCt++
			return false
		}
		t.deferCt = 0
		if owner := m.lockOwn[lockID]; owner >= 0 {
			t.status = ThreadBlocked
			t.wants = lockID
			return false
		}
		m.lockOwn[lockID] = tid
		t.held = insertSorted(t.held, lockID)
		if m.cfg.Observer != nil {
			m.cfg.Observer.LockAcquire(tid, lockID, t.pc)
		}
	case OpUnlock:
		lockID := int(in.Imm)
		if m.lockOwn[lockID] != tid {
			return fault(fmt.Sprintf("unlock of L%d not held by thread %d", lockID, tid))
		}
		m.lockOwn[lockID] = -1
		t.held = removeSorted(t.held, lockID)
		if m.cfg.Observer != nil {
			m.cfg.Observer.LockRelease(tid, lockID, t.pc)
		}
		m.wakeWaiters(lockID)
	case OpAssert:
		if t.regs[in.A] == 0 {
			*res = Result{
				Outcome:   OutcomeAssertFail,
				FaultTID:  tid,
				FaultPC:   t.pc,
				FaultInfo: fmt.Sprintf("assertion #%d failed", in.Imm),
				AssertID:  in.Imm,
			}
			return true
		}
	case OpHalt:
		t.status = ThreadDone
		return false
	default:
		return fault("illegal instruction")
	}

	t.pc = next
	return false
}

// wakeWaiters makes every thread blocked on lockID runnable again; they will
// re-attempt acquisition (and re-consult the gate) when next scheduled.
func (m *Machine) wakeWaiters(lockID int) {
	for tid := range m.threads {
		t := &m.threads[tid]
		if t.status == ThreadBlocked && t.wants == lockID {
			t.status = ThreadRunnable
			t.wants = -1
		}
	}
}

// deadlockCycle extracts the wait-for cycle from the blocked threads. With
// every live thread blocked, following wants->owner edges from any blocked
// thread must eventually revisit a thread, yielding the cycle.
func (m *Machine) deadlockCycle() []LockWait {
	visited := make(map[int]int) // tid -> order visited
	var chain []LockWait
	// Start from the lowest blocked tid for determinism.
	start := -1
	for tid := range m.threads {
		if m.threads[tid].status == ThreadBlocked {
			start = tid
			break
		}
	}
	if start < 0 {
		return nil
	}
	tid := start
	for {
		if at, seen := visited[tid]; seen {
			return chain[at:]
		}
		visited[tid] = len(chain)
		t := &m.threads[tid]
		// Reconstruct the pc of the blocking OpLock: the thread's pc still
		// points at it because blocking does not advance pc.
		chain = append(chain, LockWait{TID: tid, PC: t.pc, Wants: t.wants, Holding: t.holdsSorted()})
		owner := m.lockOwn[t.wants]
		if owner < 0 || m.threads[owner].status != ThreadBlocked {
			// Not a pure cycle (e.g., gate-deferred thread holds the lock);
			// return the chain gathered so far.
			return chain
		}
		tid = owner
	}
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
