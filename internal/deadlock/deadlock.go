// Package deadlock implements deadlock immunity in the style the paper
// cites ([16], Jula et al., "Deadlock immunity"): once a deadlock pattern
// has been observed anywhere in the pod fleet, its *signature* — the set of
// program positions and locks forming the wait cycle — is distributed to
// every pod, whose immunity gate then vetoes lock acquisitions that would
// re-instantiate the pattern, steering the schedule around the deadlock
// without changing program semantics.
package deadlock

import (
	"sort"
	"sync"

	"repro/internal/prog"
	"repro/internal/trace"
)

// SignatureEdge is one position in a deadlock pattern: a lock acquisition
// site and the lock it acquires.
type SignatureEdge struct {
	PC     int32 `json:"pc"`
	LockID int32 `json:"lockId"`
}

// Signature identifies a deadlock pattern: the set of acquisition sites
// involved in the wait cycle, canonically ordered.
type Signature struct {
	Edges []SignatureEdge `json:"edges"`
}

// FromCycle extracts the signature from a detected deadlock cycle: for each
// waiting thread, the site (PC) where it blocked and the lock it wanted.
func FromCycle(cycle []prog.LockWait) Signature {
	edges := make([]SignatureEdge, len(cycle))
	for i, w := range cycle {
		edges[i] = SignatureEdge{PC: int32(w.PC), LockID: int32(w.Wants)}
	}
	s := Signature{Edges: edges}
	s.normalize()
	return s
}

// FromWaits extracts the signature from a trace-level deadlock report.
func FromWaits(waits []trace.DeadlockWait) Signature {
	edges := make([]SignatureEdge, len(waits))
	for i, w := range waits {
		edges[i] = SignatureEdge{PC: w.PC, LockID: w.Wants}
	}
	s := Signature{Edges: edges}
	s.normalize()
	return s
}

func (s *Signature) normalize() {
	sort.Slice(s.Edges, func(i, j int) bool {
		if s.Edges[i].PC != s.Edges[j].PC {
			return s.Edges[i].PC < s.Edges[j].PC
		}
		return s.Edges[i].LockID < s.Edges[j].LockID
	})
}

// LockSet returns the set of lock ids the cycle waits on.
func (s Signature) LockSet() map[int]bool {
	out := make(map[int]bool, len(s.Edges))
	for _, e := range s.Edges {
		out[int(e.LockID)] = true
	}
	return out
}

// Gate is the pod-side immunity mechanism: a prog.LockGate plus a
// prog.Observer. For each known signature it serializes entry into the
// signature's lock set: a thread may acquire a lock belonging to the set
// only while no *other* thread holds any lock of that set. The wait cycle
// needs at least two threads simultaneously holding-and-wanting locks of the
// set, so serialization provably breaks it, at the cost of reduced
// parallelism on exactly the locks that deadlocked before — the trade
// Dimmunix [16] makes.
//
// A Gate must be installed as both Config.Gate and (via prog.MultiObserver)
// as an observer of the same machine, and must not be shared across
// machines.
type Gate struct {
	mu   sync.Mutex
	sigs []Signature
	// lockSets[i] is sigs[i]'s lock set.
	lockSets []map[int]bool
	// holders[i][tid] counts set-member locks held by tid.
	holders []map[int]int
	// Vetoes counts avoidance decisions (diagnostics / experiments).
	Vetoes int64
}

var (
	_ prog.LockGate = (*Gate)(nil)
	_ prog.Observer = (*Gate)(nil)
)

// NewGate creates a gate enforcing the given signatures.
func NewGate(sigs []Signature) *Gate {
	g := &Gate{sigs: append([]Signature(nil), sigs...)}
	g.lockSets = make([]map[int]bool, len(g.sigs))
	g.holders = make([]map[int]int, len(g.sigs))
	for i := range g.sigs {
		g.lockSets[i] = g.sigs[i].LockSet()
		g.holders[i] = make(map[int]int)
	}
	return g
}

// Allow implements prog.LockGate.
func (g *Gate) Allow(tid, lockID, pc int, held []int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.sigs {
		if !g.lockSets[i][lockID] {
			continue
		}
		for other, n := range g.holders[i] {
			if other != tid && n > 0 {
				g.Vetoes++
				return false
			}
		}
	}
	return true
}

// LockAcquire implements prog.Observer: track signature lock-set entry.
func (g *Gate) LockAcquire(tid, lockID, pc int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.sigs {
		if g.lockSets[i][lockID] {
			g.holders[i][tid]++
		}
	}
}

// LockRelease implements prog.Observer: track signature lock-set exit.
func (g *Gate) LockRelease(tid, lockID, pc int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.sigs {
		if g.lockSets[i][lockID] && g.holders[i][tid] > 0 {
			g.holders[i][tid]--
		}
	}
}

// Branch implements prog.Observer (no-op).
func (g *Gate) Branch(tid, branchID int, taken bool) {}

// Syscall implements prog.Observer (no-op).
func (g *Gate) Syscall(tid int, sysno, arg, ret int64) {}

// Schedule implements prog.Observer (no-op).
func (g *Gate) Schedule(tid int) {}
