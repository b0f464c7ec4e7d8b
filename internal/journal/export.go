package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the chain as a value: ChainExport is the one form in which a
// program's durable state leaves a data directory, a live hive or the object
// store. A chain in hand reads as a directory does (LoadChain, Replay — the
// decode and the record loop are Store's) and WriteChain is the one function
// that turns one back into files. The rest is the archive tier's surface
// (PR 10): a chain's local base and delta files are pruned against a disk
// budget once archived (PruneChain — a tether marker stands in for them) and
// come back through an injected fetcher (SetChainFetcher).

// ChainExport is one program's durable state at a consistent cut: the base
// snapshot file bytes, each delta segment's file bytes, and the current
// journal's framed records (header stripped, torn tail trimmed — always
// record-aligned, so every byte is an acknowledged, CRC-valid record). The
// snapshots LoadChain decodes from it hold their tree bytes in place, in
// Base and the deltas' Data: nobody writes into a ChainExport's bytes.
type ChainExport struct {
	ProgramID string
	HasBase   bool
	BaseGen   uint64
	Base      []byte
	Deltas    []ChainDelta
	WALGen    uint64
	// WAL is the validated framed-record region of the current journal
	// generation (everything after the header, up to the last CRC-valid
	// record boundary).
	WAL []byte
	// Tethered reports that the chain is pruned to the archive tier and this
	// value (a LocalChain) does not carry the pruned generations: they exist
	// only in the archive store, and a consumer rebuilding archive metadata
	// must carry them forward rather than treat them as gone.
	Tethered bool
}

// ChainDelta is one delta segment's generation and raw file bytes.
type ChainDelta struct {
	Gen  uint64
	Data []byte
}

// CutChain wraps a full snapshot of live state as a one-segment chain at
// generation gen: what a full checkpoint at gen would leave on disk.
func CutChain(snap *ProgramSnapshot, gen uint64) *ChainExport {
	return &ChainExport{ProgramID: snap.ProgramID, HasBase: true, BaseGen: gen, Base: encodeSnapshot(snap), WALGen: gen}
}

// LoadChain decodes the chain's segments as Store.LoadChain does a
// directory's.
func (c *ChainExport) LoadChain(programID string) (*ProgramSnapshot, []*ProgramSnapshot, error) {
	if c.ProgramID != programID || c.Tethered {
		return nil, nil, fmt.Errorf("%w: chain of %q (pruned: %v) cannot be loaded as %q", ErrCorrupt, c.ProgramID, c.Tethered, programID)
	}
	return decodeChain(programID, c)
}

// Replay feeds the chain's journaled operations to apply as Store.Replay
// does a journal file's, except that a torn record fails it: a chain's
// journal region is record-aligned, so that is corruption, not a crash's tail.
// As there, a replayed OpBatchColumnar's Raw aliases the chain's WAL bytes
// and is valid only during the apply call it is handed to.
func (c *ChainExport) Replay(programID string, apply func(Receipt) error) (int, error) {
	n, valid, err := replayRecords(programID, c.WAL, apply)
	if err == nil && valid != len(c.WAL) {
		err = fmt.Errorf("%w: chain for %s: journal record %d is torn", ErrCorrupt, programID, n)
	}
	return n, err
}

// WriteChain lands a chain in dir as the files Open expects there: the
// segments it carries, and a journal when it has records or no base.
func WriteChain(vfs FS, dir string, c *ChainExport) error {
	if vfs == nil {
		vfs = OSFS()
	}
	key := fileKey(c.ProgramID)
	if len(c.Base) > 0 {
		if err := writeFileAtomic(vfs, snapPath(dir, key, c.BaseGen), c.Base); err != nil {
			return err
		}
	}
	for _, d := range c.Deltas {
		if err := writeFileAtomic(vfs, deltaPath(dir, key, d.Gen), d.Data); err != nil {
			return err
		}
	}
	if len(c.WAL) > 0 || !c.HasBase {
		return writeFileAtomic(vfs, walPath(dir, key, c.WALGen), append(walHeader(c.ProgramID), c.WAL...))
	}
	return nil
}

// ExportChain captures a program's whole chain under its log lock — a
// consistent cut relative to appends and checkpoints. Generations pruned to
// the archive tier come through the chain fetcher, in memory: nothing is
// written back. Returns nil for a program with no persisted state at all.
func (s *Store) ExportChain(programID string) (*ChainExport, error) {
	return s.exportChain(programID, true)
}

// LocalChain is ExportChain without the fetch: what the directory itself
// holds, marked Tethered when that is not all. The archiver syncs from this —
// it already holds what was pruned.
func (s *Store) LocalChain(programID string) (*ChainExport, error) {
	return s.exportChain(programID, false)
}

func (s *Store) exportChain(programID string, whole bool) (*ChainExport, error) {
	pl := s.log(programID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out, err := s.chainLocked(pl, whole, false)
	if err != nil {
		return nil, err
	}
	walData, err := s.fs.ReadFile(walPath(s.dir, pl.key, pl.gen))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: export %s wal: %w", programID, err)
	}
	if err == nil {
		id, body, herr := splitWALHeader(walData, walPath(s.dir, pl.key, pl.gen))
		switch {
		case errors.Is(herr, ErrUnknownVersion):
			return nil, fmt.Errorf("journal: export %s: %w", programID, herr)
		case herr != nil:
			// Torn header: the creation write never completed, so the file
			// holds no acked records — export an empty WAL region.
		case id != programID:
			return nil, fmt.Errorf("%w: journal for %q found under key of %q", ErrCorrupt, id, programID)
		default:
			_, valid, _ := replayRecords(programID, body, nil)
			out.WAL = body[:valid]
		}
	}
	if !out.HasBase && len(out.Deltas) == 0 && len(out.WAL) == 0 && pl.gen == 0 {
		return nil, nil
	}
	return out, nil
}

// chainLocked reads the chain's base and delta files (no journal region). On
// a tethered chain, fetch brings the pruned generations in through the chain
// fetcher and rehydrate also writes them back, clearing the tether.
func (s *Store) chainLocked(pl *progLog, fetch, rehydrate bool) (*ChainExport, error) {
	c := &ChainExport{ProgramID: pl.id, WALGen: pl.gen, Tethered: pl.tethered}
	if !pl.hasBase {
		return c, nil
	}
	var err error
	if c.Base, err = s.fs.ReadFile(snapPath(s.dir, pl.key, pl.baseGen)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: read %s base: %w", pl.id, err)
	}
	if c.Base == nil && !pl.tethered {
		return c, nil
	}
	c.HasBase, c.BaseGen = true, pl.baseGen
	for _, dg := range pl.deltas {
		data, err := s.fs.ReadFile(deltaPath(s.dir, pl.key, dg))
		if errors.Is(err, os.ErrNotExist) && pl.tethered {
			continue // pruned: the archive tier holds it
		}
		if err != nil {
			return nil, fmt.Errorf("journal: read %s delta %d: %w", pl.id, dg, err)
		}
		c.Deltas = append(c.Deltas, ChainDelta{Gen: dg, Data: data})
	}
	if !pl.tethered || !fetch {
		return c, nil
	}
	pruned, err := s.fetchPrunedLocked(pl, c)
	if err != nil {
		return nil, err
	}
	if rehydrate {
		if err := WriteChain(s.fs, s.dir, pruned); err != nil {
			return nil, fmt.Errorf("journal: rehydrate %s: %w", pl.id, err)
		}
		_ = s.fs.Remove(s.tetherPath(pl.key))
		pl.tethered = false
	}
	if c.Base == nil {
		c.Base = pruned.Base
	}
	c.Deltas = append(c.Deltas, pruned.Deltas...)
	sort.Slice(c.Deltas, func(i, j int) bool { return c.Deltas[i].Gen < c.Deltas[j].Gen })
	c.Tethered = false
	return c, nil
}

// PruneChain deletes a program's local base and delta files once the
// archive tier holds them, leaving a tether marker in their place so the
// chain stays loadable (through the store's fetcher). The caller asserts
// exactly which generations it archived; a chain that moved on since (a
// concurrent checkpoint) is left alone — prune again after the next sync.
// The live journal is never pruned. Returns the bytes freed.
func (s *Store) PruneChain(programID string, baseGen uint64, deltaGens []uint64) (int64, error) {
	pl := s.log(programID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if !pl.hasBase || pl.tethered || pl.baseGen != baseGen || len(pl.deltas) != len(deltaGens) {
		return 0, nil
	}
	for i, dg := range pl.deltas {
		if deltaGens[i] != dg {
			return 0, nil
		}
	}
	tm := tetherMarker{ProgramID: programID, BaseGen: pl.baseGen, Deltas: append([]uint64(nil), pl.deltas...)}
	body, err := json.Marshal(&tm)
	if err != nil {
		return 0, fmt.Errorf("journal: prune %s: %w", programID, err)
	}
	// The marker lands durably before anything is deleted: a crash between
	// the two leaves a loadable (merely un-pruned) chain either way.
	if err := writeFileAtomic(s.fs, s.tetherPath(pl.key), body); err != nil {
		return 0, fmt.Errorf("journal: prune %s: %w", programID, err)
	}
	var freed int64
	remove := func(path string) {
		if f, err := s.fs.OpenFile(path, os.O_RDONLY, 0); err == nil {
			if st, err := f.Stat(); err == nil {
				freed += st.Size()
			}
			_ = f.Close()
		}
		_ = s.fs.Remove(path)
	}
	remove(snapPath(s.dir, pl.key, pl.baseGen))
	for _, dg := range pl.deltas {
		remove(deltaPath(s.dir, pl.key, dg))
	}
	pl.tethered = true
	return freed, nil
}

// SetChainFetcher installs the archive-tier rehydration hook: loading a
// pruned (tethered) chain calls fn for the program's archived bytes and
// writes the missing generations back locally before reading them. The
// archive package's ChainFetcher adapts an ObjectStore to this signature.
func (s *Store) SetChainFetcher(fn func(programID string) (*ChainExport, error)) {
	s.mu.Lock()
	s.fetcher = fn
	s.mu.Unlock()
}

// fetchPrunedLocked returns, through the chain fetcher, the generations of a
// tethered chain that local does not hold, validated.
func (s *Store) fetchPrunedLocked(pl *progLog, local *ChainExport) (*ChainExport, error) {
	s.mu.Lock()
	fetch := s.fetcher
	s.mu.Unlock()
	if fetch == nil {
		return nil, fmt.Errorf("journal: chain for %s is pruned to the archive tier and no chain fetcher is installed", pl.id)
	}
	exp, err := fetch(pl.id)
	if err != nil {
		return nil, fmt.Errorf("journal: rehydrate %s: %w", pl.id, err)
	}
	if exp == nil {
		return nil, fmt.Errorf("%w: archive returned no chain for %q", ErrCorrupt, pl.id)
	}
	if _, _, err := exp.LoadChain(pl.id); err != nil {
		return nil, err // nothing unvalidated is written back
	}
	pruned := &ChainExport{ProgramID: pl.id, HasBase: true, BaseGen: pl.baseGen, WALGen: pl.gen}
	if local.Base == nil {
		if !exp.HasBase || exp.BaseGen != pl.baseGen {
			return nil, fmt.Errorf("%w: archive chain for %s has base gen %d, local tether expects %d", ErrCorrupt, pl.id, exp.BaseGen, pl.baseGen)
		}
		pruned.Base = exp.Base
	}
	fetched := make(map[uint64][]byte, len(exp.Deltas))
	for _, d := range exp.Deltas {
		fetched[d.Gen] = d.Data
	}
	for _, d := range local.Deltas {
		delete(fetched, d.Gen)
	}
	for _, dg := range pl.deltas {
		if data, ok := fetched[dg]; ok {
			pruned.Deltas = append(pruned.Deltas, ChainDelta{Gen: dg, Data: data})
		}
	}
	if len(local.Deltas)+len(pruned.Deltas) != len(pl.deltas) {
		return nil, fmt.Errorf("%w: archive chain for %s is missing a delta generation of %v", ErrCorrupt, pl.id, pl.deltas)
	}
	return pruned, nil
}

// tetherMarker is the on-disk stand-in for a pruned chain: which
// generations moved to the archive tier (and for which program, so a fully
// pruned quiescent program still recovers its identity at scan).
type tetherMarker struct {
	ProgramID string   `json:"programId"`
	BaseGen   uint64   `json:"baseGen"`
	Deltas    []uint64 `json:"deltas,omitempty"`
}

func (s *Store) tetherPath(key string) string {
	return filepath.Join(s.dir, "tether-"+key+".json")
}

// parseTetherName splits "tether-<key>.json".
func parseTetherName(name string) (key string, ok bool) {
	if !strings.HasPrefix(name, "tether-") || !strings.HasSuffix(name, ".json") {
		return "", false
	}
	key = strings.TrimSuffix(name[len("tether-"):], ".json")
	return key, key != ""
}

func (s *Store) readTether(key string) (*tetherMarker, error) {
	data, err := s.fs.ReadFile(s.tetherPath(key))
	if err != nil {
		return nil, err
	}
	var tm tetherMarker
	if err := json.Unmarshal(data, &tm); err != nil {
		return nil, fmt.Errorf("%w: tether %s: %v", ErrCorrupt, key, err)
	}
	return &tm, nil
}

// DiskUsage sums the sizes of every file in the data directory — the
// number the archiver prunes against a disk budget.
func (s *Store) DiskUsage() (int64, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("journal: disk usage: %w", err)
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total, nil
}

// ChainSize returns the local bytes held by a program's base and delta
// files (0 when pruned or never checkpointed) — what PruneChain would free.
func (s *Store) ChainSize(programID string) int64 {
	pl := s.log(programID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if !pl.hasBase || pl.tethered {
		return 0
	}
	var total int64
	add := func(path string) {
		if f, err := s.fs.OpenFile(path, os.O_RDONLY, 0); err == nil {
			if st, err := f.Stat(); err == nil {
				total += st.Size()
			}
			_ = f.Close()
		}
	}
	add(snapPath(s.dir, pl.key, pl.baseGen))
	for _, dg := range pl.deltas {
		add(deltaPath(s.dir, pl.key, dg))
	}
	return total
}

// FileKey exposes the filename-safe key derived from a program ID, so the
// archive tier's object keys group by the same identity the journal's
// files do.
func FileKey(programID string) string { return fileKey(programID) }
