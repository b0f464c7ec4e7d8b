// Package hive implements the processing center of Figure 1: it ingests
// execution by-products from the pod fleet, merges them into per-program
// collective execution trees (§3.2), detects misbehaviours, synthesizes and
// versions fixes (§3.3), serves execution guidance toward coverage gaps, and
// attempts cumulative proofs. Failures that resist automated fixing land in
// the repair lab for human review, exactly as the paper provisions.
//
// Concurrency: the hive is sharded per program. A top-level RWMutex guards
// only the program registry; every program carries its own lock, so pods
// reporting about different programs never contend. Trace batches are
// grouped by program and each group's bookkeeping runs under a single lock
// acquisition; expensive work (path reconstruction, tree merging, fix
// synthesis) happens outside the lock.
//
// Durability: a hive recovered from (and attached to) a journal.Store
// writes every mutation — trace batches, fix synthesis outcomes, proof
// attempts, infeasibility certificates — ahead of applying it, under a
// per-program checkpoint gate, so snapshot + journal replay reconstructs
// the hive exactly (see Recover, Checkpoint, and package journal for the
// durability model and the privacy invariant: the journal stores only
// post-privacy traces, exactly as pods shipped them).
package hive

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/constraint"
	"repro/internal/deadlock"
	"repro/internal/exectree"
	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/journal"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/proof"
	"repro/internal/symbolic"
	"repro/internal/trace"
)

// ErrUnknownProgram is returned for traces about unregistered programs.
var ErrUnknownProgram = errors.New("hive: unknown program")

// FailureRecord is a point-in-time snapshot of one failure signature's
// fleet-wide aggregation (the live bookkeeping is a failureRecord in the
// program's books).
type FailureRecord struct {
	// Signature is the bucketing key (outcome @ fault site).
	Signature string
	// Outcome is the failure class.
	Outcome prog.Outcome
	// Count is the number of occurrences seen.
	Count int64
	// Pods is the number of distinct reporting pods.
	Pods int
	// Sample is one representative trace.
	Sample *trace.Trace
	// Fixed reports whether a fix targeting this signature was minted.
	Fixed bool
	// InRepairLab reports that automated synthesis gave up and the failure
	// awaits a human.
	InRepairLab bool
}

// programState is the hive's per-program knowledge. Each program is its own
// lock shard: mu guards the books and the tree pointer, while prog, sym, and
// gen are immutable after registration (gen and tree synchronize
// internally). The ingest counters and the journal breaker are atomics.
type programState struct {
	mu sync.Mutex

	// ckpt is the checkpoint gate: every journaled mutation (ingest,
	// synthesis, proof attempt, certificate) holds the read side across
	// journal-append *and* apply, so a checkpoint (write side) always cuts
	// between whole operations — an op is either fully reflected in the
	// snapshot or fully contained in the journal suffix after it, never
	// half in each.
	ckpt sync.RWMutex

	prog *prog.Program
	tree *exectree.Tree

	// books is the program's journaled bookkeeping, guarded by mu.
	books

	// recon expands external-only traces to full paths, remembering each
	// distinct reconstruction (it synchronizes internally). A pure cache:
	// it is not part of the program's durable state and survives a
	// snapshot restore replacing tree.
	recon *exectree.Reconstructor

	// hasBase and deltasSince drive the incremental-checkpoint policy
	// (full base snapshot first, then delta segments, recompacted every
	// compactEvery deltas). Both are guarded by the ckpt write gate.
	hasBase     bool
	deltasSince int

	// gone is set, under the ckpt write gate, by DropProgram: a submission
	// that resolved this shard before the drop must not be acknowledged.
	gone bool

	// readOnly is the journal breaker: latched after
	// readOnlyAppendThreshold consecutive batch-append failures (disk
	// full, dead device), it refuses further ingest with pod.ErrReadOnly
	// while guidance reads keep working, and clears when a checkpoint
	// lands durably (the disk is writable again). appendFails counts the
	// consecutive failures.
	readOnly    atomic.Bool
	appendFails atomic.Int32

	// sym and gen exist for single-threaded programs.
	sym *symbolic.Engine
	gen *guidance.Generator

	// ingested counts merged traces; reconstructed counts external-only
	// traces expanded to full paths; narrowed counts completed coordinated
	// families merged as full paths. Atomics: bumped on every batch without
	// touching any lock.
	ingested      atomic.Int64
	reconstructed atomic.Int64
	narrowed      atomic.Int64
}

// maxSessionAhead bounds one session's out-of-order applied set. If a
// permanently abandoned gap lets the set grow past the bound, the base
// slides up to the oldest retained mark — seqs under the slide degrade to
// at-most-once on resubmission.
const maxSessionAhead = 4096

// sessionEntry is one client session's dedup state: an exact window of
// applied frame sequence numbers — every seq at or below base is applied,
// plus the out-of-order applied marks above it. Tracking the exact set
// (rather than a high-water mark)
// makes deduplication independent of arrival order: frames may be
// delivered, rejected, parked across drains, and resubmitted in any
// interleaving, and a seq is re-applied iff it was never applied.
type sessionEntry struct {
	// mu serializes the dedup-check + journaled-apply of one session's
	// frames. Without it, a frame resent on a new connection while the old
	// connection's worker is still draining its queue could race the
	// original past the applied check and double-ingest. The serialization
	// is sound because a session maps to ONE entry object for the hive's
	// lifetime: the table never drops or replaces an entry, so every
	// submitter for a session contends on the same mutex.
	mu sync.Mutex

	// base and ahead are guarded by the hive's sessMu.
	base  uint64
	ahead map[uint64]struct{}
}

// Hive is the aggregation and analysis center. All methods are safe for
// concurrent use.
type Hive struct {
	mu       sync.RWMutex // guards the programs map only
	programs map[string]*programState
	salt     string

	// journal, when attached via Recover, receives every mutation ahead of
	// application. Nil for a purely in-memory hive.
	journal *journal.Store
	// compactEvery is the incremental-checkpoint compaction interval: after
	// this many delta checkpoints a program's next checkpoint is full,
	// collapsing the chain. <= 0 forces every checkpoint full.
	compactEvery int
	// durabilityErr latches the first journal failure of a synthesis or proof
	// op (a refused batch or certificate is not applied instead). A pointer
	// so the CAS
	// never sees inconsistently typed values.
	durabilityErr atomic.Pointer[error]

	// sessions is the exactly-once dedup table for wire resubmission
	// (session ID -> exact applied-seq window), guarded by sessMu. One map,
	// and an entry, once created, is never dropped or replaced: dedup stays
	// exactly-once for every session the fleet has ever sent, across
	// checkpoints, re-homes and cold standby (the table is checkpointed and
	// archived with program state), and a lookup is one map access however
	// many sessions there are. Memory grows with the sessions seen; giving
	// the table a home of its own and a retirement rule is ROADMAP item 6.
	sessMu   sync.Mutex
	sessions map[string]*sessionEntry

	// shedPolicy, pressure, and shed make up the rarity-priced load shedder
	// (shed.go): when the injected pressure gauge passes the policy's
	// watermark, sessioned batches are priced against the exec tree before
	// ingest and the cheapest work is dropped or deferred. All three are
	// zero-value safe — a hive with no policy installed prices nothing.
	shedPolicy atomic.Pointer[ShedPolicy]
	pressure   atomic.Pointer[func() float64]
	shed       shedCounters

	// Logf receives operational warnings (the read-only breaker opening
	// and closing); nil is silent. Set before serving traffic.
	Logf func(format string, args ...any)
}

// defaultCompactEvery is how many delta checkpoints a program accumulates
// before the next checkpoint compacts the chain with a full snapshot.
const defaultCompactEvery = 8

// New creates an empty hive. salt is the fleet-wide input-digest salt
// (needed to correlate hashed inputs).
func New(salt string) *Hive {
	return &Hive{
		programs:     make(map[string]*programState),
		salt:         salt,
		sessions:     make(map[string]*sessionEntry),
		compactEvery: defaultCompactEvery,
	}
}

// SetCompactEvery tunes the incremental-checkpoint policy: a program's
// checkpoint writes a delta segment (O(changes since last checkpoint))
// until n deltas have accumulated, then a full snapshot compacts the chain.
// n <= 0 makes every checkpoint full — the pre-incremental behavior.
func (h *Hive) SetCompactEvery(n int) {
	h.compactEvery = n
}

// RegisterProgram tells the hive about a program so it can reconstruct,
// analyze, and fix it. Registration is idempotent.
func (h *Hive) RegisterProgram(p *prog.Program) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.programs[p.ID]; ok {
		return nil
	}
	st := &programState{prog: p, recon: exectree.NewReconstructor(p)}
	st.reset()
	if p.NumThreads() == 1 {
		sym, err := symbolic.New(p, symbolic.Config{})
		if err != nil {
			return fmt.Errorf("hive: register %s: %w", p.ID, err)
		}
		st.sym = sym
	}
	gen, err := guidance.NewGenerator(p, 0)
	if err != nil {
		return fmt.Errorf("hive: register %s: %w", p.ID, err)
	}
	st.gen = gen
	h.programs[p.ID] = st
	return nil
}

// reset puts the program's recoverable state where registration leaves it.
// The caller holds the checkpoint gate exclusively (or the only reference).
func (st *programState) reset() {
	st.mu.Lock()
	st.tree = exectree.New(st.prog.ID)
	st.books = newBooks()
	st.mu.Unlock()
	st.ingested.Store(0)
	st.reconstructed.Store(0)
	st.narrowed.Store(0)
	st.hasBase, st.deltasSince = false, 0
}

// state resolves a program shard by ID.
func (h *Hive) state(programID string) (*programState, error) {
	h.mu.RLock()
	st, ok := h.programs[programID]
	h.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownProgram, programID)
	}
	return st, nil
}

// SubmitTraces implements pod.HiveClient for callers that hold materialized
// traces (pods flushing without a bound buffer, the WER/CBI baselines): the
// edge of the one ingest path. The batch is grouped by program, preserving
// arrival order within each program and first-appearance order across
// programs; every group is encoded once into the columnar batch form and
// handed to SubmitColumnarSession untagged, so it is shed, journaled and
// applied exactly like a frame that arrived sealed.
//
// The call is all-or-nothing with respect to validation (unknown program):
// every ProgramID is resolved before any trace is ingested, so a batch
// rejected for that reason can be re-submitted without double-counting. On
// a durable hive there is one additional failure mode: a journal-append
// failure (e.g. disk full) rejects the failing group un-applied and aborts
// the call, leaving groups already ingested by the same call in place —
// each group is atomic, the multi-program call is not. Requeue-on-failure
// clients needing exactly-once submit sealed, tagged frames instead
// (pod.SealedStreamer over the wire, SubmitColumnarSession in process).
func (h *Hive) SubmitTraces(traces []*trace.Trace) error {
	groups := trace.GroupByProgram(traces)
	for _, g := range groups {
		if _, err := h.state(g.ProgramID); err != nil {
			return err
		}
	}
	var enc []byte
	for _, g := range groups {
		var err error
		if enc, err = trace.AppendBatch(enc[:0], g.ProgramID, g.Traces); err != nil {
			return err
		}
		view, err := trace.DecodeBatch(enc)
		if err != nil {
			return err
		}
		_, err = h.SubmitColumnarSession("", 0, view)
		view.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// SubmitColumnarSession implements pod.ColumnarSubmitter and is the hive's
// one ingest path: every batch — off the wire, from an in-process drain,
// from SubmitTraces' edge — is deduplicated, priced by the load shedder,
// journaled and applied here. The view's fields are consumed straight out
// of the frame's bytes — traces are materialized only where the hive must
// retain one (failure samples, coordinated fragments); an external-only
// trace is reconstructed from its frame bytes, by re-execution only on
// first sight — and on a durable hive the journal records *those same
// bytes* (journal.OpBatchColumnar), so a batch is serialized exactly once
// in its lifetime: on the pod.
//
// A non-empty session deduplicates by (session, seq), so a client
// resubmitting a partially-acknowledged stream — over a new connection, or
// frames parked across whole drains — ingests each batch exactly once. The
// dedup window is the exact set of applied sequence numbers (a contiguous
// base plus out-of-order marks), so arrival order does not matter: a frame
// is re-applied iff it was never applied — possibly by journal replay after
// a crash, since the op carrying (session, seq) is journaled ahead of the
// apply — and is otherwise acknowledged as a duplicate without
// re-ingesting.
func (h *Hive) SubmitColumnarSession(session string, seq uint64, batch *trace.BatchView) (bool, error) {
	if batch.Len() == 0 {
		return false, nil
	}
	st, err := h.state(batch.ProgramID())
	if err != nil {
		return false, err
	}
	if session != "" {
		// One session's frames serialize across connections: the applied
		// check and the journaled apply must be atomic per session, or a
		// duplicate in flight on two connections would pass the check twice.
		e := h.sessionFor(session)
		e.mu.Lock()
		defer e.mu.Unlock()
		if h.sessionApplied(e, seq) {
			return true, nil
		}
	}
	// Shed decisions land after the dedup check and before the journal: a
	// dropped batch is acked without marking the session, so a resubmission
	// re-prices it fresh — at-least-once for shed work, exactly-once for
	// everything admitted.
	if drop, err := h.shedView(st, batch); drop || err != nil {
		return false, err
	}

	// Journal and apply under the checkpoint gate. The op is appended
	// *before* it is applied — the write-ahead discipline, carried by the
	// receipt the apply takes — so an acknowledged batch is always
	// recoverable; if the journal cannot take the op the batch is rejected
	// un-applied and the client retries. The op carries the batch's raw bytes
	// verbatim and the (session, seq) tag, so recovery replays them through
	// the same apply and rebuilds the dedup table with them.
	st.ckpt.RLock()
	defer st.ckpt.RUnlock()
	if st.gone {
		return false, fmt.Errorf("%w: %s", ErrUnknownProgram, st.prog.ID)
	}
	// The op borrows the frame bytes only while this call runs: the group's
	// leader (this goroutine, or the appender ahead of it in the program's
	// queue) copies them into the write buffer before Commit returns, the
	// apply reads only the op's session tag, and the op is cleared before it
	// goes back to the pool, so Raw never outlives the frame.
	op := opPool.Get().(*journal.Op)
	//lint:allow viewescape Raw is consumed (copied to the WAL buffer) before Commit returns; the op is cleared before the frame is released
	*op = journal.Op{Kind: journal.OpBatchColumnar, Session: session, Seq: seq, Raw: batch.Bytes()}
	r, err := h.journalBatchAppend(st, op)
	if err == nil {
		h.applyBatchView(st, batch, r)
	}
	*op = journal.Op{}
	opPool.Put(op)
	return false, err
}

// opPool recycles the ops batches are journaled and applied under: an op is
// done with once its apply returns.
var opPool = sync.Pool{New: func() any { return new(journal.Op) }}

// ingestScratch is the pooled per-batch working set of the apply path: one
// input buffer and one signature buffer serve a whole batch, so steady-state
// ingestion of benign traces allocates nothing per trace.
type ingestScratch struct {
	input []int64
	sig   []byte
}

var ingestScratchPool = sync.Pool{New: func() any { return &ingestScratch{} }}

// applyBatchView folds one columnar batch into the hive under the receipt of
// its journaled op — the one apply, shared by live ingestion and journal
// replay — reading fields directly out of the view, and marks the session
// the op names as applied. Bookkeeping runs under the shard lock, taken once
// per batch and only by a batch that has some; reconstruction, narrowing and
// tree merging run outside it. A Trace is materialized only where one is
// retained: failure samples (once per signature ever) and coordinated
// fragments. Full-capture traffic is merged straight from the view's
// decoded branch column, and an external-only trace is keyed by its
// frame bytes into the program's reconstructor, which re-executes the
// program only for a trace it has not expanded before; when reconstruction
// fails the trace merges at recorded granularity — the tree stays sound,
// only less detailed.
//
// A replayed receipt never re-elects fix synthesis — synthesis outcomes are
// replayed from their own journal ops.
//
// Evidence visibility is batch-granular: known-good inputs harvested
// anywhere in the batch are visible when fixes for the batch's failures are
// validated (pass 3 runs after pass 1). A guard candidate therefore
// competes against strictly more collective knowledge than under per-trace
// ingestion — failing validation routes the signature to the repair lab
// rather than shipping a guard that contradicts an observed-good input.
func (h *Hive) applyBatchView(st *programState, v *trace.BatchView, r journal.Receipt) {
	op := r.Must(journal.OpBatchColumnar, journal.OpBatch)
	live := !r.Replayed()
	singleThreaded := st.prog.NumThreads() == 1
	n := v.Len()
	sc := ingestScratchPool.Get().(*ingestScratch)
	defer ingestScratchPool.Put(sc)

	// Pass 1 — bookkeeping, in batch order: coordinated fragment buffering,
	// known-good harvesting, and failure aggregation with its single-flight
	// synthesis election. mu is taken at the first trace that has any, so a
	// batch of benign hashed traces never waits on a synthesis append
	// holding it.
	var families map[int][]*trace.Trace
	var toSynthesize []*failureRecord
	held := false
	for i := 0; i < n; i++ {
		coordinated := v.Mode(i) == trace.CaptureCoordinated && singleThreaded
		good := v.Privacy(i) == trace.PrivacyRaw && v.Outcome(i) == prog.OutcomeOK && v.NumInputs(i) > 0
		failed := v.Outcome(i).IsFailure()
		if !coordinated && !good && !failed {
			continue
		}
		if !held {
			st.mu.Lock()
			held = true
		}
		if coordinated {
			if fam, complete := st.bufferCoordinated(v.Materialize(i)); complete {
				if families == nil {
					families = make(map[int][]*trace.Trace)
				}
				families[i] = fam
			}
		}
		if good {
			sc.input = v.AppendInput(sc.input[:0], i)
			st.harvestKnownGood(sc.input)
		}
		if failed {
			sc.sig = v.FailureSignature(sc.sig[:0], i)
			i := i
			rec, elected := st.recordFailure(sc.sig, v.PodID(i), v.Outcome(i),
				func() *trace.Trace { return v.Materialize(i) }, live)
			if elected {
				toSynthesize = append(toSynthesize, rec)
			}
		}
	}
	if held {
		st.mu.Unlock()
	}
	st.ingested.Add(int64(n))

	// Pass 2 — path expansion and tree merging, in batch order:
	// external-only traces reconstruct to full paths, completed coordinated
	// families narrow (if narrowing fails the family is incomplete or
	// ambiguous evidence and the fragment merges at recorded granularity, so
	// it still counts), everything else merges straight from the view.
	var reconstructed, narrowed int64
	for i := 0; i < n; i++ {
		outcome := v.Outcome(i)
		path, ok := st.recon.View(v, i)
		if ok {
			reconstructed++
		}
		if fam, ok := families[i]; ok {
			if full, ok := narrowFamily(st.prog, fam, outcome); ok {
				path = full
				narrowed++
			}
		}
		if path == nil {
			path = v.Branches(i)
		}
		st.tree.Merge(path, outcome)
	}
	if reconstructed > 0 {
		st.reconstructed.Add(reconstructed)
	}
	if narrowed > 0 {
		st.narrowed.Add(narrowed)
	}

	// Pass 3 — synthesize fixes for the signatures this batch saw first.
	// Rare (once per signature ever), and single-flight by construction.
	for _, rec := range toSynthesize {
		h.synthesizeFix(st, rec)
	}

	if op.Session != "" {
		h.sessMu.Lock()
		markAppliedLocked(h.sessionLocked(op.Session), op.Seq)
		h.sessMu.Unlock()
	}
}

// knownGoodSnapshot copies the known-good input set.
func (st *programState) knownGoodSnapshot() [][]int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([][]int64(nil), st.knownGood...)
}

// narrowFamily combines a completed fragment family into per-site directions
// and reconstructs the full path (paper §3.1 narrowing). It is pure with
// respect to hive state and runs outside any lock.
func narrowFamily(p *prog.Program, family []*trace.Trace, outcome prog.Outcome) ([]trace.BranchEvent, bool) {
	sites, err := trace.CombineCoordinated(family)
	if err != nil {
		return nil, false
	}
	var sysRet []int64
	for _, s := range family[0].Syscalls {
		sysRet = append(sysRet, s.Ret)
	}
	full, got, err := exectree.ReconstructFromSites(p, sites, sysRet, family[0].Steps)
	if err != nil || got != outcome {
		return nil, false
	}
	return full, true
}

// synthesizeFix mints a fix for a newly observed failure signature:
// deadlocks become immunity signatures; input-triggered crashes and
// assertion failures become validated input guards; everything else goes to
// the repair lab. Exactly one call ever happens per signature (single-flight
// via failureRecord.synthesizing), so concurrent traces carrying the same
// new signature cannot mint duplicate fixes or double-bump the epoch. The
// trigger trace is the record's sample.
func (h *Hive) synthesizeFix(st *programState, rec *failureRecord) {
	tr := rec.sample
	var minted *fix.Fix
	switch tr.Outcome {
	case prog.OutcomeDeadlock:
		if len(tr.Deadlock) > 0 {
			sig := deadlock.FromWaits(tr.Deadlock)
			minted = &fix.Fix{
				ProgramID:       st.prog.ID,
				Kind:            fix.KindDeadlockImmunity,
				TargetSignature: rec.signature,
				Deadlock:        &sig,
			}
		}
	case prog.OutcomeCrash, prog.OutcomeAssertFail:
		minted = h.synthesizeInputGuard(st, rec, tr)
	}

	if minted != nil && minted.Validate() != nil {
		minted = nil // the repair lab's
	}
	// Journal first, publish second — the order every other mutation takes —
	// so a fix pods can sync to is one a restart still has. Under st.mu, so
	// synthesis ops land in the journal in fix-ID order and replay re-assigns
	// identical IDs. Synthesis runs inside an ingest's checkpoint gate, so
	// the op is atomic with its batch relative to checkpoints. The same
	// section concludes the election under the op's receipt — or, when the
	// journal refused the outcome, leaves the signature as it was, for the
	// next trace carrying it to win a new election.
	var err error
	op := &journal.Op{Kind: journal.OpSynthesis, Signature: rec.signature}
	st.mu.Lock()
	defer st.mu.Unlock()
	if minted != nil {
		minted.Validated = true
		minted.ID = st.fixes.Len() + 1 // the ID Add assigns
		op.Fix, err = fix.Encode(minted)
	}
	var r journal.Receipt
	if err == nil {
		r, err = h.journalBatchAppend(st, op)
	}
	if err != nil {
		rec.synthesizing = false
		return
	}
	st.applySynthesis(r, minted)
}

// readOnlyAppendThreshold is how many consecutive batch-append failures a
// program absorbs before its journal breaker opens. One failure can be a
// transient (a torn write the journal rolled back); a run of them means the
// disk is full or gone, and every retried batch would burn a write cycle to
// fail again.
const readOnlyAppendThreshold = 3

// journalBatchAppend is the write-ahead append of the ops that are refused
// when the journal refuses them — a batch, a certificate, a synthesis
// outcome, a proof — with the read-only breaker wrapped around it: an open
// breaker refuses the op immediately with pod.ErrReadOnly (no disk touch), a
// failed append counts toward opening it, and a successful append resets the
// count. Only a durably landed checkpoint closes an open breaker (see
// CheckpointProgram) — proof the disk takes writes again. It returns the
// receipt the op is applied under; an in-memory hive's nil journal records
// nothing and hands the receipt straight back.
func (h *Hive) journalBatchAppend(st *programState, op *journal.Op) (journal.Receipt, error) {
	if st.readOnly.Load() {
		return journal.Receipt{}, fmt.Errorf("hive: program %s refuses ingest (guidance still served): %w", st.prog.ID, pod.ErrReadOnly)
	}
	r, err := h.journal.Commit(st.prog.ID, op)
	if err != nil {
		if st.appendFails.Add(1) >= readOnlyAppendThreshold {
			if !st.readOnly.Swap(true) && h.Logf != nil {
				h.Logf("hive: program %s: %d consecutive journal append failures (%v); flipping read-only — guidance is still served, ingest refused until a checkpoint lands", st.prog.ID, readOnlyAppendThreshold, err)
			}
		}
		return journal.Receipt{}, fmt.Errorf("hive: journal %s: %w", st.prog.ID, err)
	}
	st.appendFails.Store(0)
	return r, nil
}

// ReadOnlyPrograms counts programs whose journal breaker is currently open.
func (h *Hive) ReadOnlyPrograms() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n := 0
	for _, st := range h.programs {
		if st.readOnly.Load() {
			n++
		}
	}
	return n
}

// noteDurability latches the first journal failure of an op whose effects
// were applied anyway: a refused OpProof, whose evidence merges are already
// in the tree.
func (h *Hive) noteDurability(err error) {
	h.durabilityErr.CompareAndSwap(nil, &err)
}

// DurabilityError returns the first journal failure of an op whose effects
// were applied all the same (a refused proof's evidence merges), or nil. A
// batch, a certificate, a synthesis outcome or a proof the journal refuses is
// not applied or published, so only a proof's evidence is ever lost.
func (h *Hive) DurabilityError() error {
	if p := h.durabilityErr.Load(); p != nil {
		return *p
	}
	return nil
}

// sessionFor returns a session's dedup entry, creating it for a session
// never seen.
func (h *Hive) sessionFor(session string) *sessionEntry {
	h.sessMu.Lock()
	defer h.sessMu.Unlock()
	return h.sessionLocked(session)
}

// sessionLocked is sessionFor for callers that hold sessMu.
func (h *Hive) sessionLocked(session string) *sessionEntry {
	e, ok := h.sessions[session]
	if !ok {
		e = &sessionEntry{}
		h.sessions[session] = e
	}
	return e
}

// SessionCount returns the dedup table's size. The second value is always
// zero: the table has one tier, and the signature stays only until the
// benchmark that compiles against it can change (ROADMAP item 1).
func (h *Hive) SessionCount() (live, _ int) {
	h.sessMu.Lock()
	defer h.sessMu.Unlock()
	return len(h.sessions), 0
}

// sessionApplied reports whether seq is in the entry's applied window.
func (h *Hive) sessionApplied(e *sessionEntry, seq uint64) bool {
	h.sessMu.Lock()
	defer h.sessMu.Unlock()
	if seq <= e.base {
		return true
	}
	_, ok := e.ahead[seq]
	return ok
}

// markAppliedLocked inserts seq into the entry's applied window. Callers
// hold sessMu.
func markAppliedLocked(e *sessionEntry, seq uint64) {
	if seq <= e.base {
		return
	}
	if e.ahead == nil {
		e.ahead = make(map[uint64]struct{})
	}
	e.ahead[seq] = struct{}{}
	compactWindowLocked(e)
	if len(e.ahead) > maxSessionAhead {
		// An abandoned gap is pinning the window open: slide the base to
		// the oldest retained mark (bounded-memory degradation, see
		// maxSessionAhead).
		oldest := uint64(math.MaxUint64)
		for s := range e.ahead {
			if s < oldest {
				oldest = s
			}
		}
		if oldest > e.base {
			e.base = oldest
		}
		compactWindowLocked(e)
	}
}

// compactWindowLocked restores the window invariant after base or ahead
// changed: marks at or below the base are dropped, and a contiguous run of
// marks just above it folds into the base. Callers hold sessMu.
func compactWindowLocked(e *sessionEntry) {
	for s := range e.ahead {
		if s <= e.base {
			delete(e.ahead, s)
		}
	}
	for {
		if _, ok := e.ahead[e.base+1]; !ok {
			break
		}
		delete(e.ahead, e.base+1)
		e.base++
	}
}

// sessionSnapshot copies the dedup table for a checkpoint: the contiguous
// base per session, plus any out-of-order applied marks above it. The whole
// table is persisted: a checkpoint + archive round-trip preserves
// exactly-once for every session the hive has ever deduped.
func (h *Hive) sessionSnapshot() (map[string]uint64, map[string][]uint64) {
	h.sessMu.Lock()
	defer h.sessMu.Unlock()
	if len(h.sessions) == 0 {
		return nil, nil
	}
	bases := make(map[string]uint64, len(h.sessions))
	var ahead map[string][]uint64
	for id, e := range h.sessions {
		bases[id] = e.base
		if len(e.ahead) > 0 {
			if ahead == nil {
				ahead = make(map[string][]uint64)
			}
			marks := make([]uint64, 0, len(e.ahead))
			for s := range e.ahead {
				marks = append(marks, s)
			}
			sort.Slice(marks, func(i, j int) bool { return marks[i] < marks[j] })
			ahead[id] = marks
		}
	}
	return bases, ahead
}

// mergeSessions folds recovered dedup windows into the table (union-merge:
// applied marks only ever accumulate, so merging snapshot and replayed-op
// views in any order converges).
func (h *Hive) mergeSessions(bases map[string]uint64, ahead map[string][]uint64) {
	h.sessMu.Lock()
	defer h.sessMu.Unlock()
	for id, base := range bases {
		e := h.sessionLocked(id)
		if base > e.base {
			e.base = base
			compactWindowLocked(e)
		}
	}
	for id, marks := range ahead {
		e := h.sessionLocked(id)
		for _, seq := range marks {
			markAppliedLocked(e, seq)
		}
	}
}

// synthesizeInputGuard derives a danger-zone guard from the failing trace's
// path condition. Privacy-friendly: it does not need the raw input — the
// recorded input-dependent branch directions are replayed symbolically
// (forced run) to recover the path condition.
func (h *Hive) synthesizeInputGuard(st *programState, rec *failureRecord, tr *trace.Trace) *fix.Fix {
	if st.sym == nil {
		return nil
	}
	// Extract the input-dependent decisions from the trace.
	var forced []trace.BranchEvent
	for _, be := range tr.Branches {
		if st.prog.InputDependent(int(be.ID)) {
			forced = append(forced, be)
		}
	}
	base := make([]int64, st.prog.NumInputs)
	path, err := st.sym.RunForced(base, forced)
	if err != nil || !path.Outcome.IsFailure() {
		return nil
	}
	cond := path.Condition()
	if len(cond) == 0 {
		return nil
	}

	safe := h.safeInput(st, cond)
	if safe == nil {
		return nil
	}
	guard := &fix.InputGuard{Danger: fix.TermsFromCondition(cond), SafeInput: safe}

	// Validation against collective knowledge: no known-good input may fall
	// in the danger zone (the fix must not change any previously-correct
	// behaviour).
	goodInputs := st.knownGoodSnapshot()
	for _, g := range goodInputs {
		if guard.Matches(g) {
			return nil
		}
	}
	return &fix.Fix{
		ProgramID:       st.prog.ID,
		Kind:            fix.KindInputGuard,
		TargetSignature: rec.signature,
		Guard:           guard,
	}
}

// safeInput picks a replacement input outside the danger zone: a known-good
// input when available, otherwise one synthesized by solving the negated
// condition.
func (h *Hive) safeInput(st *programState, danger constraint.PathCondition) []int64 {
	goodInputs := st.knownGoodSnapshot()
	holds := func(input []int64) bool {
		assign := make(map[int]int64, len(input))
		for i, v := range input {
			assign[i] = v
		}
		return danger.Holds(assign)
	}
	for _, g := range goodInputs {
		if !holds(g) {
			return g
		}
	}
	// Negate the last constraint: stays on the same path prefix, exits the
	// danger zone.
	neg := danger.Clone()
	neg[len(neg)-1] = neg[len(neg)-1].Negate()
	res := (&constraint.Solver{}).Solve(neg)
	if res.Verdict != constraint.SAT {
		return nil
	}
	out := make([]int64, st.prog.NumInputs)
	for v, val := range res.Model {
		if v < len(out) {
			out[v] = val
		}
	}
	if holds(out) {
		return nil
	}
	return out
}

// FixesSince implements the pod-facing fix distribution API.
func (h *Hive) FixesSince(programID string, version int) ([]fix.Fix, int, error) {
	st, err := h.state(programID)
	if err != nil {
		return nil, 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	fixes, cur := st.fixes.Since(version)
	return fixes, cur, nil
}

// certify is the one way an infeasibility certificate reaches a live
// program's tree, whichever engine refuted the frontier: the OpCert is
// journaled first, through the breaker-accounted append, and applied second —
// the order every other mutation takes — so a certificate the journal
// refuses is not applied (the frontier stays open, and whoever pulls it next
// tries again), and nothing waits on the tree's lock while the append waits
// on the disk. The caller holds the read side of the program's checkpoint
// gate. It reports whether the frontier is certified.
func (h *Hive) certify(st *programState, prefix []exectree.Edge, missing exectree.Edge) bool {
	if st.gone {
		return false
	}
	r, err := h.journalBatchAppend(st, &journal.Op{Kind: journal.OpCert, Prefix: prefix, Missing: missing})
	return err == nil && st.applyCert(r)
}

// Guidance implements the pod-facing steering API: test cases toward the
// program's current coverage gaps. The snapshot and the solving are reads —
// the generator and the tree synchronize internally — and run outside the
// checkpoint gate, so a checkpoint in progress does not hold up a pull and a
// long pull does not hold up a checkpoint. The one journaled step, certifying
// a frontier the solver refuted, takes the gate for itself.
func (h *Hive) Guidance(programID string, max int) ([]guidance.TestCase, error) {
	st, err := h.state(programID)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	tree := st.tree
	st.mu.Unlock()
	certify := func(prefix []exectree.Edge, missing exectree.Edge) bool {
		st.ckpt.RLock()
		defer st.ckpt.RUnlock()
		// A frontier of a tree an import has since replaced certifies
		// nothing: the program's tree may not hold its prefix.
		return st.tree == tree && h.certify(st, prefix, missing)
	}
	return st.gen.GenerateWith(tree, max, certify), nil
}

// Prove attempts a cumulative proof of the property for the program,
// reusing a standing proof when the tree and fixes have not changed its
// validity. The proof is published only once its OpProof is journaled,
// through the read-only breaker like every other mutation: a refused op
// publishes nothing and returns the error (wrapping pod.ErrReadOnly while
// the breaker is open).
func (h *Hive) Prove(programID string, property proof.Property) (*proof.Proof, error) {
	st, err := h.state(programID)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	if pr, ok := st.proofs[property]; ok && pr.Epoch == st.epoch {
		st.mu.Unlock()
		return pr, nil
	}
	sym := st.sym
	epoch := st.epoch
	st.mu.Unlock()

	if sym == nil {
		return nil, fmt.Errorf("hive: proofs for multi-threaded program %s not supported", programID)
	}
	// The attempt mutates the tree (synthesized evidence merges,
	// certificates); hold the checkpoint gate so the whole attempt and its
	// journal op are atomic relative to snapshots.
	st.ckpt.RLock()
	defer st.ckpt.RUnlock()
	engine := proof.NewEngine(st.prog, sym)
	pr, err := engine.AttemptWith(st.tree, property, epoch, func(prefix []exectree.Edge, missing exectree.Edge) bool {
		return h.certify(st, prefix, missing)
	})
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	// The op carries the proof and its merged evidence; the certificates the
	// attempt minted were journaled one by one, each ahead of its apply. The
	// evidence merges are in the tree already, so a refused op leaves them
	// applied and unjournaled: that is what DurabilityError latches.
	data, err := proof.Encode(pr)
	var r journal.Receipt
	if err == nil {
		r, err = h.journalBatchAppend(st, &journal.Op{Kind: journal.OpProof, Proof: data})
	}
	if err != nil {
		h.noteDurability(err)
		return nil, err
	}
	st.applyProof(r, pr)
	return pr, nil
}

// PublishedProofs returns the standing (non-invalidated) proofs for a
// program — the paper's "for correct behaviors, SoftBorg's hive produces
// and publishes proofs of P's properties".
func (h *Hive) PublishedProofs(programID string) ([]*proof.Proof, error) {
	st, err := h.state(programID)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*proof.Proof, 0, len(st.proofs))
	for _, pr := range st.proofs {
		if pr.Epoch == st.epoch {
			out = append(out, pr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Property < out[j].Property })
	return out, nil
}

// ProveNoDeadlock attempts a bounded-schedule proof that the program —
// running under its currently distributed fixes (immunity gates) — cannot
// deadlock within the given scheduling-decision bound. This is how the hive
// verifies a deadlock fix exhaustively instead of merely observing that
// reports stopped (paper §3.3: "must reason about whether this
// instrumentation could affect P in undesired ways").
func (h *Hive) ProveNoDeadlock(programID string, input []int64, bound int) (*proof.ScheduleProof, error) {
	st, err := h.state(programID)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	var sigs []deadlock.Signature
	for _, f := range st.fixes.All() {
		if f.Kind == fix.KindDeadlockImmunity && f.Deadlock != nil {
			sigs = append(sigs, *f.Deadlock)
		}
	}
	st.mu.Unlock()

	cfg := proof.ScheduleConfig{Input: input, Bound: bound}
	if len(sigs) > 0 {
		cfg.Instruments = func() (prog.LockGate, prog.Observer) {
			g := deadlock.NewGate(sigs)
			return g, g
		}
	}
	return proof.AttemptBoundedSchedules(st.prog, proof.PropNoDeadlock, cfg)
}

// Stats is a hive-side per-program snapshot.
type Stats struct {
	ProgramID     string
	Ingested      int64
	Reconstructed int64
	// Narrowed counts coordinated-sampling families completed and merged
	// as full paths.
	Narrowed int64
	// Reconstructor is the program's reconstruction memo: lookups answered
	// from a remembered path, lookups that re-executed the program, and the
	// bytes remembered. Process-local cache counters, not durable state: a
	// recovered or re-homed hive starts them from zero.
	Reconstructor exectree.ReconstructorStats
	Tree          exectree.Stats
	Failures      []FailureRecord
	FixCount      int
	Epoch         int
	RepairLab     int
}

// ProgramStats returns a snapshot for one program.
func (h *Hive) ProgramStats(programID string) (Stats, error) {
	st, err := h.state(programID)
	if err != nil {
		return Stats{}, err
	}
	st.mu.Lock()
	out := Stats{
		ProgramID:     programID,
		Ingested:      st.ingested.Load(),
		Reconstructed: st.reconstructed.Load(),
		Narrowed:      st.narrowed.Load(),
		Reconstructor: st.recon.Stats(),
		Tree:          st.tree.Stats(),
		Failures:      st.failureRecords(),
		FixCount:      st.fixes.Len(),
		Epoch:         st.epoch,
	}
	st.mu.Unlock()
	for _, rec := range out.Failures {
		if rec.InRepairLab {
			out.RepairLab++
		}
	}
	return out, nil
}

// TreeView is a read-only view of a program's execution tree, for callers
// outside the hive (experiments, the fleet simulation, examples): only the
// hive changes the tree, as it applies journaled ops.
type TreeView struct{ t *exectree.Tree }

// Stats summarizes the tree.
func (v TreeView) Stats() exectree.Stats { return v.t.Stats() }

// FrontierCount returns the number of open frontiers.
func (v TreeView) FrontierCount() int { return v.t.FrontierCount() }

// EdgeCoverage returns the branch directions the tree covers, of p's total.
func (v TreeView) EdgeCoverage(p *prog.Program) (covered, total int) { return v.t.EdgeCoverage(p) }

// Encode serializes the tree.
func (v TreeView) Encode() []byte { return v.t.Encode() }

// Tree returns a read-only view of a program's execution tree.
func (h *Hive) Tree(programID string) (TreeView, error) {
	st, err := h.state(programID)
	if err != nil {
		return TreeView{}, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return TreeView{st.tree}, nil
}

// Programs lists registered program IDs.
func (h *Hive) Programs() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, 0, len(h.programs))
	for id := range h.programs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
