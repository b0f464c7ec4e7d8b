package exectree

import (
	"sync"

	"repro/internal/prog"
	"repro/internal/trace"
)

// reconstructorBudget is the byte budget of one program's remembered
// reconstructions, both generations together. A constant, not a setting:
// the memo is a pure cache (see Reconstructor), so its size trades only
// memory against re-execution and never changes what any caller observes —
// there is no second value a deployment would need. 8 MiB is six times
// what the largest program of the repository's benchmark ever remembers
// (1.3 MB after 32k traces; EXPERIMENTS.md E19); a program that outgrows it
// re-executes its cold tail, it does not fall off a cliff.
const reconstructorBudget = 8 << 20

// memoOverhead approximates the per-entry bookkeeping (map bucket share,
// string and slice headers) charged against the budget on top of the key
// and path bytes.
const memoOverhead = 64

// memo is one remembered reconstruction: the full path, or — ok false —
// the fact that this key does not reconstruct.
type memo struct {
	path []trace.BranchEvent
	ok   bool
}

// ReconstructorStats is a snapshot of a Reconstructor's cache counters.
type ReconstructorStats struct {
	// Hits counts lookups answered from a remembered reconstruction; Misses
	// counts lookups that re-executed the program.
	Hits, Misses int64
	// ResidentBytes is the budget-accounted size of what is remembered.
	ResidentBytes int64
}

// Reconstructor is Reconstruct for one program with a memory: the result is
// a pure function of the trace's reconstruction key
// (trace.AppendReconstructionKey: outcome, steps, recorded branch stream,
// syscall stream), and a fleet reports the same executions over and over,
// so each distinct key is expanded once and every later arrival is answered
// from the remembered path — no Trace is materialized and no prog.Machine
// is created.
//
// The memory is keyed by the exact key bytes, never a digest of them, and a
// miss computes its result from those bytes alone: what is remembered under
// a key is what Reconstruct returns for any trace carrying it. A hostile
// pod can therefore evict entries but not poison one, and a hive that
// remembers, a hive replaying its journal cold, and a re-homed hive all
// merge identical paths. Bounded by reconstructorBudget with two-generation
// rotation: inserts fill the current generation; when it is full it becomes
// the old one (dropping the previous old one) and hits in the old
// generation move back to the current — so the working set survives
// rotation and a full memo costs one generation of cold entries, not a
// cliff.
//
// Safe for concurrent use. The lock is internal and held only around map
// operations, never across a replay; two concurrent misses on one key both
// replay and agree.
type Reconstructor struct {
	prog  *prog.Program
	input []int64 // all-zero placeholder input, only ever read
	// genBudget is the byte budget of one generation.
	genBudget int

	mu                 sync.Mutex
	cur, old           map[string]memo
	curBytes, oldBytes int
	hits, misses       int64
}

// NewReconstructor returns an empty reconstructor for p.
func NewReconstructor(p *prog.Program) *Reconstructor {
	return &Reconstructor{
		prog:      p,
		input:     make([]int64, p.NumInputs),
		genBudget: reconstructorBudget / 2,
		cur:       make(map[string]memo),
	}
}

// reconScratch is the pooled working set of one lookup: the key, and on a
// miss the decoded replay inputs and the path under construction.
type reconScratch struct {
	key  []byte
	in   trace.ReconstructionInput
	full []trace.BranchEvent
}

var reconScratchPool = sync.Pool{New: func() any { return &reconScratch{} }}

// View reconstructs trace i of a columnar batch, reading its key straight
// out of the frame. ok is exactly Reconstruct(p, v.Materialize(i)) == nil
// error, and path what it returns then. The path is shared with the memory
// and every other caller: it must not be modified.
func (r *Reconstructor) View(v *trace.BatchView, i int) (path []trace.BranchEvent, ok bool) {
	if v.Mode(i) != trace.CaptureExternalOnly || v.ProgramID() != r.prog.ID || r.prog.NumThreads() > 1 {
		return nil, false
	}
	sc := reconScratchPool.Get().(*reconScratch)
	defer reconScratchPool.Put(sc)
	sc.key = v.AppendReconstructionKey(sc.key[:0], i)
	return r.lookup(sc)
}

// lookup answers sc.key from memory, or replays it and remembers the result.
func (r *Reconstructor) lookup(sc *reconScratch) ([]trace.BranchEvent, bool) {
	r.mu.Lock()
	m, hit := r.cur[string(sc.key)]
	if !hit {
		if m, hit = r.old[string(sc.key)]; hit {
			delete(r.old, string(sc.key))
			r.oldBytes -= memoCost(len(sc.key), m)
			r.storeLocked(string(sc.key), m)
		}
	}
	if hit {
		r.hits++
		r.mu.Unlock()
		return m.path, m.ok
	}
	r.misses++
	r.mu.Unlock()

	sc.full = sc.full[:0]
	err := trace.ParseReconstructionKey(sc.key, &sc.in)
	if err == nil {
		var full []trace.BranchEvent
		if full, err = replay(r.prog, r.input, &sc.in, sc.full); full != nil {
			sc.full = full
		}
	}
	if err == nil {
		// The remembered copy is exactly sized; the scratch keeps the slack.
		m = memo{path: append([]trace.BranchEvent(nil), sc.full...), ok: true}
	}
	r.mu.Lock()
	r.storeLocked(string(sc.key), m)
	r.mu.Unlock()
	return m.path, m.ok
}

// memoCost is what one entry is charged against the budget.
func memoCost(keyLen int, m memo) int {
	const eventBytes = 8 // unsafe.Sizeof(trace.BranchEvent{})
	return keyLen + eventBytes*len(m.path) + memoOverhead
}

// storeLocked remembers m under key in the current generation, rotating the
// generations first when it would not fit. An entry too large for a whole
// generation is not remembered at all.
func (r *Reconstructor) storeLocked(key string, m memo) {
	cost := memoCost(len(key), m)
	if cost > r.genBudget {
		return
	}
	if _, dup := r.cur[key]; dup {
		return // a concurrent miss on the same key got here first
	}
	if r.curBytes+cost > r.genBudget {
		r.old, r.oldBytes = r.cur, r.curBytes
		r.cur, r.curBytes = make(map[string]memo), 0
	}
	r.cur[key] = m
	r.curBytes += cost
}

// Stats snapshots the cache counters.
func (r *Reconstructor) Stats() ReconstructorStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReconstructorStats{
		Hits:          r.hits,
		Misses:        r.misses,
		ResidentBytes: int64(r.curBytes + r.oldBytes),
	}
}
