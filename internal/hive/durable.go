package hive

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/exectree"
	"repro/internal/fix"
	"repro/internal/journal"
	"repro/internal/proof"
	"repro/internal/trace"
)

// Recover restores the hive's durable state from store — newest snapshot
// plus journal-suffix replay, per program — and attaches the store, so
// every subsequent mutation is journaled ahead of being applied. Call it
// after registering the program corpus and before serving traffic. A
// recovered hive is semantically identical to the one that wrote the
// journal: same program stats, same frontier sets (exectree.Decode rebuilds
// the incremental index), same published fixes and standing proofs, and the
// same exactly-once session dedup table.
//
// Persisted state for a program that is not registered is an error: it
// means the data directory and the program corpus disagree (wrong -seed, or
// a stale directory), and silently dropping collective knowledge is exactly
// what the journal exists to prevent.
//
// Programs are independent shards, so min(GOMAXPROCS, programs) workers
// restore them side by side, taking program IDs in sorted order. The session
// table is the one thing they share; applied marks only accumulate, so it
// answers the same whatever order the programs finish in. Each worker
// holds one program's decoded chain and journal at a time, so the memory
// Recover needs beyond the restored state is bounded by workers × (largest
// chain + journal). On failure the error is that of the lowest program ID
// that failed, as a serial pass would report.
func (h *Hive) Recover(store *journal.Store) error {
	if h.journal != nil {
		return errors.New("hive: journal already attached")
	}
	for _, id := range store.Programs() {
		if _, err := h.state(id); err != nil {
			return fmt.Errorf("hive: recover: journal holds state for unregistered program %s", id)
		}
	}
	ids := h.Programs()
	errs := make([]error, len(ids))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(ids)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// IDs are handed out in order, so when one fails every lower ID
			// is already with a worker: stopping here loses no earlier error.
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				if errs[i] = h.recoverProgram(store, ids[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	h.journal = store
	return nil
}

// chainSource is where recoverProgram reads a program's chain: a data
// directory (*journal.Store) or a chain in hand (*journal.ChainExport).
type chainSource interface {
	LoadChain(programID string) (base *journal.ProgramSnapshot, deltas []*journal.ProgramSnapshot, err error)
	Replay(programID string, apply func(journal.Receipt) error) (int, error)
}

// recoverProgram is the one function that turns a chain into live state: the
// snapshot chain, then the journal suffix after the chain's last checkpoint.
// It touches that program's shard and, through mergeSessions and applyOp,
// the session table. Every op is applied under the receipt the replay hands
// out, by the apply the live path uses for its kind.
//
// The replay's tree merges go through a path fold this function owns for the
// length of the replay and hands down to the batch apply: a journal suffix
// repeats its executions many times over, and the fold merges each distinct
// (outcome, path) once with its count (Tree.MergeN), in order of first
// occurrence. Every order-dependent effect of a merge — node and kid order,
// frontiers opened and retired, the delta working set's order — happens at a
// path's first occurrence, so the tree comes out byte-identical to a trace by
// trace replay, delta working set included. That holds only while nothing
// else touches the tree between a trace and its flush: the fold is flushed
// before every op that is not a batch (a certificate reads the tree, a proof
// merges its evidence), at the end of the replay before the deferred
// certificates, and whenever it holds foldLimit events, which bounds its
// memory at about 8 MiB of path copies plus their keys.
func (h *Hive) recoverProgram(src chainSource, id string) error {
	st, err := h.state(id)
	if err != nil {
		return err
	}
	base, deltas, err := src.LoadChain(id)
	if err != nil {
		return err
	}
	if base != nil {
		if err := h.restoreProgram(st, base, deltas); err != nil {
			return err
		}
	}
	// Track tree changes from this point: journal-suffix ops replayed
	// below mark the dirty set, so the first post-recovery checkpoint
	// can be an incremental segment capturing exactly the suffix.
	st.tree.SetDeltaTracking(true)
	// Certificates minted during a proof attempt can reference nodes the
	// attempt itself created; those merges replay later, inside the
	// attempt's OpProof. A cert whose prefix is not in the tree yet is
	// deferred and re-applied once the program's whole journal has
	// replayed (certificates are order-independent facts). Certs still
	// unresolvable then belong to an attempt that crashed before its
	// OpProof landed — its merges are gone, so the frontier they
	// discharged does not exist either.
	var deferred []journal.Receipt
	fold := newPathFold(st.tree)
	if _, err := src.Replay(id, func(r journal.Receipt) error {
		kind := r.Op().Kind
		if kind != journal.OpBatchColumnar {
			fold.flush()
		}
		if kind != journal.OpCert {
			return h.applyOp(st, r, fold)
		}
		if !st.applyCert(r) {
			deferred = append(deferred, r)
		}
		return nil
	}); err != nil {
		return err
	}
	fold.flush()
	for _, r := range deferred {
		st.applyCert(r)
	}
	return nil
}

// restoreProgram rebuilds one program's state from a checkpoint chain: the
// base snapshot's tree with every delta segment's tree patch overlaid in
// order, and the non-tree state from the newest segment (each segment
// carries it in full). The checkpoint policy goes on from the chain: its
// deltas and the node entries they hold count toward the next base.
func (h *Hive) restoreProgram(st *programState, base *journal.ProgramSnapshot, deltas []*journal.ProgramSnapshot) error {
	treeDeltas := make([][]byte, 0, len(deltas))
	for _, d := range deltas {
		treeDeltas = append(treeDeltas, d.TreeDelta)
	}
	tree, err := exectree.DecodeChain(base.Tree, treeDeltas)
	if err != nil {
		return fmt.Errorf("hive: restore %s tree: %w", st.prog.ID, err)
	}
	entries := 0
	for _, d := range treeDeltas {
		n, err := exectree.DeltaEntries(d)
		if err != nil {
			return fmt.Errorf("hive: restore %s tree: %w", st.prog.ID, err)
		}
		entries += n
	}
	if tree.ProgramID() != st.prog.ID {
		return fmt.Errorf("hive: snapshot tree for %q restored into %q", tree.ProgramID(), st.prog.ID)
	}
	snap := base
	if len(deltas) > 0 {
		snap = deltas[len(deltas)-1]
	}
	b, err := decodeBooks(snap)
	if err != nil {
		return fmt.Errorf("hive: restore %s: %w", st.prog.ID, err)
	}

	st.mu.Lock()
	st.tree = tree
	st.books = b
	st.mu.Unlock()
	st.ingested.Store(snap.Ingested)
	st.reconstructed.Store(snap.Reconstructed)
	st.narrowed.Store(snap.Narrowed)
	st.hasBase, st.deltasSince, st.deltaEntries = true, len(deltas), entries
	h.mergeSessions(snap.Sessions, snap.SessionsAhead)
	return nil
}

// applyOp replays one journaled operation other than a certificate (which
// recoverProgram applies itself, deferring those whose prefix is not in the
// tree yet) through the apply the live path uses for its kind, decoding
// what the live path holds decoded already. A batch's merges go to fold.
func (h *Hive) applyOp(st *programState, r journal.Receipt, fold *pathFold) error {
	op := r.Op()
	switch op.Kind {
	case journal.OpBatchColumnar:
		view, err := trace.DecodeBatch(op.Raw)
		if err != nil {
			return fmt.Errorf("hive: replay %s columnar batch: %w", st.prog.ID, err)
		}
		// The journaled bytes ARE the wire bytes and replay runs through the
		// apply live ingestion uses, so a recovered hive reproduces the live
		// one's state exactly.
		h.applyBatchView(st, view, r, fold)
		view.Release()
	case journal.OpSynthesis:
		var f *fix.Fix
		if len(op.Fix) > 0 {
			var err error
			if f, err = fix.Decode(op.Fix); err != nil {
				return fmt.Errorf("hive: replay %s fix for %q: %w", st.prog.ID, op.Signature, err)
			}
		}
		st.mu.Lock()
		st.applySynthesis(r, f)
		st.mu.Unlock()
	case journal.OpProof:
		pr, err := proof.Decode(op.Proof)
		if err != nil {
			return fmt.Errorf("hive: replay %s proof: %w", st.prog.ID, err)
		}
		st.mu.Lock()
		st.applyProof(r, pr)
		st.mu.Unlock()
	default:
		return fmt.Errorf("hive: unknown journal op kind %d", op.Kind)
	}
	return nil
}

// applySynthesis concludes a signature's synthesis election under the
// receipt of its OpSynthesis, live or replayed: the fix f the attempt minted
// is published, or, with none, the signature goes to the repair lab. A new
// fix bumps the epoch and drops the standing proofs (paper §3.3: the hive
// must decide whether instrumentation invalidates existing knowledge; we
// take the sound route and drop them for re-proving). Synthesis ops are
// journaled in fix-ID order, so Add assigns a replayed fix the ID the live
// hive handed out. The record is created if the batch that elected it was
// snapshotted away. The caller holds mu.
func (st *programState) applySynthesis(r journal.Receipt, f *fix.Fix) {
	sig := r.Must(journal.OpSynthesis).Signature
	rec, ok := st.failures[sig]
	if !ok {
		rec = &failureRecord{signature: sig, podsSeen: make(map[string]bool)}
		st.failures[sig] = rec
	}
	rec.synthesizing = false
	if f == nil {
		rec.inRepairLab = true
		return
	}
	st.fixes.Add(*f)
	st.epoch++
	st.proofs = make(map[proof.Property]*proof.Proof)
	rec.fixed = true
}

// applyCert attaches an infeasibility certificate to the tree under the
// receipt of its OpCert, live or replayed, and reports whether the frontier
// it names is certified.
func (st *programState) applyCert(r journal.Receipt) bool {
	op := r.Must(journal.OpCert)
	return st.tree.CertifyInfeasible(op.Prefix, op.Missing)
}

// applyProof publishes a proof under the receipt of its OpProof. Replay
// also merges the evidence paths the proof carries; a live attempt merged
// them itself, ahead of its op, which is why a refused op leaves them
// applied (see DurabilityError). The caller holds mu.
func (st *programState) applyProof(r journal.Receipt, pr *proof.Proof) {
	r.Must(journal.OpProof)
	if r.Replayed() {
		for _, ev := range pr.Evidence {
			st.tree.Merge(ev.Path, ev.Outcome)
		}
	}
	st.proofs[pr.Property] = pr
}

// Checkpoint writes a fresh snapshot for every program and rotates its
// journal. Each program is checkpointed independently under its checkpoint
// gate: ingestion for other programs keeps flowing, and cross-program
// session marks stay consistent because the dedup table is max-merged from
// every snapshot at recovery.
func (h *Hive) Checkpoint() error {
	if h.journal == nil {
		return errors.New("hive: checkpoint without an attached journal")
	}
	for _, id := range h.Programs() {
		if err := h.CheckpointProgram(id); err != nil {
			return err
		}
	}
	return nil
}

// CheckpointProgram snapshots one program and rotates its journal. With the
// incremental policy (the default) most checkpoints write a delta segment —
// only the tree nodes touched since the previous checkpoint plus the small
// non-tree state — bounding the pause under the gate to O(changes) instead
// of O(tree). A program's first checkpoint writes a full snapshot, and so
// does any checkpoint whose delta would bring the node entries of the
// chain's deltas since its base to half the tree's node count or more (and
// to chainFloor or more): a restore then decodes at most about one and a
// half trees' worth of nodes, however much of the tree each checkpoint's
// traffic touches. The half is a constant, not a setting. A full snapshot
// compacts the chain; so does the checkpoint after compactEvery deltas,
// whatever they held. OpProof evidence merges mark the dirty set like any
// other merge, so a proof attempt's evidence paths are folded into the very
// next segment eagerly instead of being replayed from the journal forever.
func (h *Hive) CheckpointProgram(programID string) error {
	if h.journal == nil {
		return errors.New("hive: checkpoint without an attached journal")
	}
	st, err := h.state(programID)
	if err != nil {
		return err
	}
	st.ckpt.Lock()
	defer st.ckpt.Unlock()
	return h.checkpointLocked(st, 0)
}

// chainFloor is how many node entries a program's deltas may re-state
// whatever the size of its tree. The half rule bounds what a restore
// decodes; in a tree of a few nodes, where one trace's root path is half of
// it, there is nothing to bound, and the rule alone would write a base and
// delete the chain at every checkpoint.
const chainFloor = 8

// checkpointLocked is the checkpoint itself, under the program's checkpoint
// gate held exclusively: the periodic one, and the one that makes an import
// durable — full, the program having no base here, and at a generation past
// above, the one the imported chain was cut at.
func (h *Hive) checkpointLocked(st *programState, above uint64) error {
	programID := st.prog.ID

	// Quiescent program: nothing merged since the last checkpoint and no
	// journal ops to retire — a checkpoint would write an empty segment
	// (or, on a compaction tick, re-encode an unchanged tree) for zero
	// replay-debt reduction. Skipping never loses data: the journal, if it
	// somehow had ops, stays in place. Session marks that advanced via
	// other programs' traffic are carried by those programs' segments and
	// ops (recovery max-merges all of them). An open write breaker is not
	// quiescence: refused appends leave nothing to retire, and only a landed
	// checkpoint closes it.
	_, open := h.journal.Breaker(programID)
	if st.hasBase && st.tree.DirtyNodes() == 0 && !open &&
		h.journal.AppendsSinceCheckpoint(programID) == 0 {
		return nil
	}

	var delta []byte
	dirty := st.tree.DirtyNodes()
	restated := st.deltaEntries + dirty // what the chain would re-state
	if st.hasBase && h.compactEvery > 0 && st.deltasSince < h.compactEvery &&
		(restated < chainFloor || 2*int64(restated) < st.tree.Stats().Nodes) {
		delta = st.tree.EncodeDelta()
	}
	snap, err := h.snapshotProgramMeta(st)
	if err != nil {
		return err
	}
	if delta != nil {
		snap.TreeDelta = delta
		if err := h.journal.CheckpointDelta(snap); err != nil {
			return err
		}
		// Only now that the segment is durable does the boundary move; a
		// failed write above leaves the dirty set (and the journal) intact,
		// so nothing acknowledged can fall between snapshots.
		st.tree.ResetDelta()
		st.deltasSince++
		st.deltaEntries += dirty
	} else {
		snap.Tree = st.tree.Encode()
		if err := h.journal.Checkpoint(snap, above); err != nil {
			return err
		}
		st.tree.SetDeltaTracking(true) // fresh boundary over the new base
		st.hasBase, st.deltasSince, st.deltaEntries = true, 0, 0
	}
	// The landed segment closed the journal's write breaker. Under the
	// exclusive gate no append ran since it was read above.
	if open && h.Logf != nil {
		h.Logf("hive: program %s: checkpoint landed; read-only breaker closed, ingest resumes", programID)
	}
	return nil
}

// snapshotProgramMeta serializes everything in one program's durable state
// except the tree — fixes, proofs, failure aggregation, counters,
// known-good inputs, the coordinated buffer, and the session table. Both
// full snapshots and delta segments carry this in full; only the tree
// differs. The caller holds the checkpoint gate exclusively, so no
// journaled mutation is in flight.
func (h *Hive) snapshotProgramMeta(st *programState) (*journal.ProgramSnapshot, error) {
	snap := &journal.ProgramSnapshot{
		ProgramID:     st.prog.ID,
		Ingested:      st.ingested.Load(),
		Reconstructed: st.reconstructed.Load(),
		Narrowed:      st.narrowed.Load(),
	}
	st.mu.Lock()
	err := st.books.encode(snap)
	st.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("hive: snapshot %s: %w", st.prog.ID, err)
	}
	snap.Sessions, snap.SessionsAhead = h.sessionSnapshot()
	return snap, nil
}
