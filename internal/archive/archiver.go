package archive

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/journal"
)

// Options configures an Archiver.
type Options struct {
	// Writer names this replica in the manifests it ships (reconciliation
	// tie-break and key suffix; two replicas never overwrite each other's
	// manifests).
	Writer string
	// DiskBudget bounds the journal data directory's local footprint in
	// bytes. After each SyncAll the archiver prunes fully-archived
	// snapshot chains (largest first) until usage fits, leaving tether
	// markers behind. Zero disables pruning.
	DiskBudget int64
}

// Stats counts archiver activity since construction.
type Stats struct {
	Syncs            int64
	SegmentsWritten  int64
	ManifestsWritten int64
	BytesWritten     int64
	ChainsPruned     int64
	BytesPruned      int64
	SyncErrors       int64
}

// Archiver tiers a journal store's program chains into an ObjectStore in
// the background: each sync uploads whatever a program's chain has gained
// since the last one — a new base or delta generation in full, the current
// journal generation as incremental record-aligned chunks — then ships a
// manifest describing the archived chain. Once a chain is archived, Prune
// may drop its local base and delta files against the disk budget; the
// journal's tether/rehydrate protocol keeps the program loadable.
type Archiver struct {
	store  *journal.Store
	obj    ObjectStore
	writer string
	budget int64

	// mu guards state and stats. It is a leaf lock: held across a whole
	// program sync (serializing syncs) including calls into the journal,
	// whose per-program locks are internal and never reach back here.
	mu    sync.Mutex
	state map[string]*progState
	stats Stats
}

// progState mirrors what the archive store holds for one program — enough
// to compute the incremental upload set and the next manifest without
// re-listing the store every sync.
type progState struct {
	seq      uint64
	hasBase  bool
	baseGen  uint64
	baseKey  string
	deltas   []ManifestDelta
	walGen   uint64
	walLen   uint64
	walParts []ManifestPart
	// synced is set once a manifest covering this exact chain shipped;
	// only synced chains are prune candidates.
	synced bool
}

// New builds an archiver tiering store into obj.
func New(store *journal.Store, obj ObjectStore, opts Options) *Archiver {
	w := opts.Writer
	if w == "" {
		w = "hive"
	}
	return &Archiver{store: store, obj: obj, writer: w, budget: opts.DiskBudget, state: make(map[string]*progState)}
}

// Stats snapshots the activity counters.
func (a *Archiver) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// SyncAll syncs every program with persisted state, then prunes local
// chains against the disk budget. Per-program errors are counted and the
// first is returned, but one bad program never blocks the rest.
func (a *Archiver) SyncAll() error {
	var first error
	ids := a.store.Programs()
	// A program the hive gave away left the store; so does its sync state.
	a.mu.Lock()
	for id := range a.state {
		if i := sort.SearchStrings(ids, id); i == len(ids) || ids[i] != id {
			delete(a.state, id)
		}
	}
	a.mu.Unlock()
	for _, id := range ids {
		if err := a.SyncProgram(id); err != nil && first == nil {
			first = err
		}
	}
	if err := a.Prune(); err != nil && first == nil {
		first = err
	}
	return first
}

// SyncProgram brings the archive store up to date with one program's chain
// and ships a manifest if anything changed.
func (a *Archiver) SyncProgram(programID string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, err := a.seedLocked(programID)
	if err != nil {
		a.stats.SyncErrors++
		return err
	}
	exp, err := a.store.LocalChain(programID)
	if err != nil {
		a.stats.SyncErrors++
		return err
	}
	a.stats.Syncs++
	if exp == nil {
		return nil // nothing persisted yet
	}
	fk := journal.FileKey(programID)
	changed := false
	put := func(key string, seg *Segment) error {
		data := EncodeSegment(seg)
		if err := a.obj.Put(key, data); err != nil {
			return err
		}
		a.stats.SegmentsWritten++
		a.stats.BytesWritten += int64(len(data))
		changed = true
		return nil
	}

	want := a.desiredDeltasLocked(st, exp, fk)
	if exp.WALGen != st.walGen || a.chainChangedLocked(st, exp, want) {
		// New generation (a checkpoint rotated the chain): upload the new
		// base and any delta generations the store doesn't already hold,
		// then restart WAL chunking for the new generation.
		if exp.HasBase && len(exp.Base) > 0 {
			key := segmentKey(fk, KindFull, exp.BaseGen, 0, contentHash(exp.Base))
			if key != st.baseKey {
				if err := put(key, &Segment{Kind: KindFull, ProgramID: programID, Gen: exp.BaseGen, Payload: exp.Base}); err != nil {
					a.stats.SyncErrors++
					return err
				}
			}
			st.hasBase, st.baseGen, st.baseKey = true, exp.BaseGen, key
		} else if exp.HasBase && st.hasBase && st.baseGen == exp.BaseGen {
			// Tethered chain: the base is already archived (that is why its
			// bytes are pruned locally); keep the recorded key.
		} else if !exp.HasBase {
			st.hasBase, st.baseKey = false, ""
		}
		prev := make(map[uint64]string, len(st.deltas))
		for _, d := range st.deltas {
			prev[d.Gen] = d.Key
		}
		for _, d := range exp.Deltas {
			key := segmentKey(fk, KindDelta, d.Gen, 0, contentHash(d.Data))
			if prev[d.Gen] != key {
				if err := put(key, &Segment{Kind: KindDelta, ProgramID: programID, Gen: d.Gen, Payload: d.Data}); err != nil {
					a.stats.SyncErrors++
					return err
				}
			}
		}
		st.deltas = want
		st.walGen, st.walLen, st.walParts = exp.WALGen, 0, nil
		st.synced = false
	}

	// Incremental WAL chunk: within a generation the valid record prefix
	// only grows (rollback truncates unacked bytes only), so each sync
	// ships exactly the new suffix.
	if grown := uint64(len(exp.WAL)); grown > st.walLen {
		chunk := exp.WAL[st.walLen:]
		part := uint64(len(st.walParts))
		key := segmentKey(fk, KindWALChunk, st.walGen, part, contentHash(chunk))
		if err := put(key, &Segment{Kind: KindWALChunk, ProgramID: programID, Gen: st.walGen, Part: part, Offset: st.walLen, Payload: chunk}); err != nil {
			a.stats.SyncErrors++
			return err
		}
		st.walParts = append(st.walParts, ManifestPart{Part: part, Key: key, Offset: st.walLen, Len: uint64(len(chunk))})
		st.walLen = grown
	}

	if !changed && st.synced {
		return nil
	}
	st.seq++
	m := &Manifest{
		ProgramID: programID, Seq: st.seq, Writer: a.writer,
		HasBase: st.hasBase, BaseGen: st.baseGen, BaseKey: st.baseKey,
		Deltas: append([]ManifestDelta(nil), st.deltas...),
		WALGen: st.walGen, WALLen: st.walLen,
		WALParts: append([]ManifestPart(nil), st.walParts...),
	}
	data, err := encodeManifest(m)
	if err != nil {
		a.stats.SyncErrors++
		return err
	}
	if err := a.obj.Put(manifestKey(fk, st.seq, a.writer), data); err != nil {
		a.stats.SyncErrors++
		return fmt.Errorf("archive: manifest %s: %w", programID, err)
	}
	a.stats.ManifestsWritten++
	a.stats.BytesWritten += int64(len(data))
	st.synced = true
	return nil
}

// seedLocked initializes a program's sync state from the store's winning
// manifest — a restarted archiver (or one taking over from another writer)
// resumes incremental syncing instead of re-uploading the world.
func (a *Archiver) seedLocked(programID string) (*progState, error) {
	if st, ok := a.state[programID]; ok {
		return st, nil
	}
	st := &progState{}
	win, err := loadWinningManifest(a.obj, journal.FileKey(programID))
	if err != nil {
		return nil, err
	}
	if win != nil {
		st.seq = win.Seq
		st.hasBase, st.baseGen, st.baseKey = win.HasBase, win.BaseGen, win.BaseKey
		st.deltas = append(st.deltas, win.Deltas...)
		st.walGen, st.walLen = win.WALGen, win.WALLen
		st.walParts = append(st.walParts, win.WALParts...)
		st.synced = win.Writer == a.writer
	}
	a.state[programID] = st
	return st, nil
}

// desiredDeltasLocked computes the delta list the next manifest must carry:
// every generation the export holds bytes for (keyed by content hash), plus
// — on a tethered chain — previously archived generations whose local bytes
// were pruned. LocalChain does not carry a pruned delta; the archive copy
// is the only copy, and dropping its key from the manifest would silently
// amputate recovered history (cold standbys would refuse the chain as
// missing a generation).
func (a *Archiver) desiredDeltasLocked(st *progState, exp *journal.ChainExport, fk string) []ManifestDelta {
	exported := make(map[uint64]bool, len(exp.Deltas))
	want := make([]ManifestDelta, 0, len(exp.Deltas)+len(st.deltas))
	for _, d := range exp.Deltas {
		exported[d.Gen] = true
		want = append(want, ManifestDelta{Gen: d.Gen, Key: segmentKey(fk, KindDelta, d.Gen, 0, contentHash(d.Data))})
	}
	if exp.Tethered {
		// Deltas live in (baseGen, gen]: after CheckpointDelta the newest
		// delta's generation *equals* the WAL generation, so the upper bound
		// is inclusive — dropping a pruned delta at exp.WALGen would amputate
		// the chain's newest archived generation.
		for _, d := range st.deltas {
			if !exported[d.Gen] && d.Gen > exp.BaseGen && d.Gen <= exp.WALGen {
				want = append(want, d)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Gen < want[j].Gen })
	}
	return want
}

// chainChangedLocked reports whether the program's archived chain metadata
// diverged from what the next manifest must say (a seeded state from
// another writer may lag; a fresh delta checkpoint extends the list).
func (a *Archiver) chainChangedLocked(st *progState, exp *journal.ChainExport, want []ManifestDelta) bool {
	if st.hasBase != exp.HasBase || st.baseGen != exp.BaseGen || len(st.deltas) != len(want) {
		return true
	}
	for i, d := range want {
		if st.deltas[i] != d {
			return true
		}
	}
	return false
}

// Prune drops local base/delta files of fully-archived chains — largest
// first — until the data directory fits the disk budget. The live journal
// generation is never pruned, so the budget is best-effort when journals
// alone exceed it.
func (a *Archiver) Prune() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.budget <= 0 {
		return nil
	}
	usage, err := a.store.DiskUsage()
	if err != nil {
		return err
	}
	if usage <= a.budget {
		return nil
	}
	type cand struct {
		id   string
		size int64
	}
	var cands []cand
	for id, st := range a.state {
		if st.synced && st.hasBase {
			if sz := a.store.ChainSize(id); sz > 0 {
				cands = append(cands, cand{id, sz})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].size > cands[j].size })
	for _, c := range cands {
		if usage <= a.budget {
			break
		}
		st := a.state[c.id]
		gens := make([]uint64, len(st.deltas))
		for i, d := range st.deltas {
			gens[i] = d.Gen
		}
		freed, err := a.store.PruneChain(c.id, st.baseGen, gens)
		if err != nil {
			a.stats.SyncErrors++
			return err
		}
		if freed > 0 {
			usage -= freed
			a.stats.ChainsPruned++
			a.stats.BytesPruned += freed
		}
	}
	return nil
}

// Materialize rebuilds a journal-compatible data directory under dir from
// the archive store alone: every program's winning manifest becomes the
// files the journal's own recovery scan expects (journal.WriteChain), so
// opening the directory with journal.Open recovers exactly as it would from
// the original disk. Returns the number of programs materialized.
func Materialize(obj ObjectStore, vfs journal.FS, dir string) (int, error) {
	if vfs == nil {
		vfs = journal.OSFS()
	}
	if err := vfs.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("archive: materialize: %w", err)
	}
	ids, err := Programs(obj)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range ids {
		exp, err := Load(obj, id)
		if err != nil {
			return n, fmt.Errorf("archive: materialize %s: %w", id, err)
		}
		if exp == nil {
			continue
		}
		if err := journal.WriteChain(vfs, dir, exp); err != nil {
			return n, fmt.Errorf("archive: materialize %s: %w", id, err)
		}
		n++
	}
	return n, nil
}
