package exectree

import (
	"sync"

	"repro/internal/memo"
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

// reconstruction is one remembered result: the full path, or — ok false —
// the fact that this key does not reconstruct.
type reconstruction struct {
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
// merge identical paths. Bounded by reconstructorBudget in a memo.Memo, whose
// two-generation rotation keeps the working set across a full memory.
//
// Safe for concurrent use. The lock is internal and held only around map
// operations, never across a replay; two concurrent misses on one key both
// replay and agree.
type Reconstructor struct {
	prog  *prog.Program
	input []int64 // all-zero placeholder input, only ever read

	mu           sync.Mutex
	memo         *memo.Memo[reconstruction]
	hits, misses int64
}

// NewReconstructor returns an empty reconstructor for p.
func NewReconstructor(p *prog.Program) *Reconstructor {
	return &Reconstructor{
		prog:  p,
		input: make([]int64, p.NumInputs),
		memo:  memo.New[reconstruction](reconstructorBudget),
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
	m, hit := r.memo.Get(sc.key)
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
		m = reconstruction{path: append([]trace.BranchEvent(nil), sc.full...), ok: true}
	}
	const eventBytes = 8 // unsafe.Sizeof(trace.BranchEvent{})
	r.mu.Lock()
	// A concurrent miss on the same key may have got here first; its copy stays.
	r.memo.Put(sc.key, m, eventBytes*len(m.path))
	r.mu.Unlock()
	return m.path, m.ok
}

// Stats snapshots the cache counters.
func (r *Reconstructor) Stats() ReconstructorStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReconstructorStats{
		Hits:          r.hits,
		Misses:        r.misses,
		ResidentBytes: int64(r.memo.ResidentBytes()),
	}
}
