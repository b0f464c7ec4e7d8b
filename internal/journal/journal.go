// Package journal is the hive's persistence subsystem: an append-only
// write-ahead journal of ingest operations plus periodic snapshots, giving
// the collective knowledge the paper's whole premise depends on — execution
// trees, failure signatures, fixes, and proofs grow monotonically as the
// fleet runs — a life beyond one hive process.
//
// # Durability model
//
// State is persisted per program: every program has its own journal file
// (write-ahead log of replayable operations, see Op) and its own snapshot
// chain. A mutation is appended to the program's journal *before* it is
// applied to the in-memory hive, so an acknowledged submission is always
// either in a snapshot or in the journal suffix after it. The order is
// carried by a value: the hive applies an op only under the Receipt that
// Commit returns once the op is durable, or that Replay hands out for a
// record it read back, and only this package can mint one. Recovery loads the
// newest snapshot chain and replays the journal suffix through the same
// apply path live ingestion uses; snapshot + suffix reconstructs the hive
// exactly — including the execution tree's incremental frontier index,
// which exectree.Decode rebuilds.
//
// # Snapshot chains
//
// A checkpoint is either *full* (Checkpoint: the program's complete state,
// O(tree)) or *incremental* (CheckpointDelta: only the state that changed
// since the previous checkpoint, O(changes)). Each checkpoint bumps the
// program's generation and rotates its journal, so the on-disk state is
// always one base snapshot, zero or more delta segments in generation
// order, and the current journal:
//
//	snap-<key>-<B>.snap  delta-<key>-<B+1>.snap ... delta-<key>-<T>.snap  wal-<key>-<T>.log
//
// Recovery merges base + deltas in order (LoadChain), then replays the
// journal. A full checkpoint compacts the chain back to a single base and
// deletes everything older. Snapshots rotate atomically: the new file is
// written to a temp name, fsynced, and renamed before the journal is
// rotated and superseded generations are deleted, so a crash at any point
// leaves a recoverable chain on disk. Journal records are CRC-framed; a
// torn tail from a crash mid-append is detected and truncated on recovery —
// the torn record was never applied (append happens before apply) and never
// acknowledged.
//
// Every segment, base or delta, is one CRC-framed envelope (version 4, see
// encodeSnapshot): the program ID, the tree bytes and the tree-delta bytes
// as length-prefixed fields, then the rest of the snapshot — counters,
// fixes, proofs, failure records, known-good inputs, coordinated batches and
// the session table — in the same uvarint framing the journal's records use,
// with fixes and proofs as their own codecs' bytes. A restore reads the byte
// fields where they lie: a decoded ProgramSnapshot's Tree, TreeDelta and
// other byte fields alias the segment's bytes, so no caller may write into
// them, nor into the bytes of a ChainExport. Every segment of a chain is
// parsed in full, and one whose state does not parse is ErrCorrupt. Open
// names a program from the header's first field without parsing the rest.
//
// # One format per file, and refusal
//
// Each file kind has one format this build reads and writes: envelope
// version 4 for segments, journal header version 1, and op version 1 with
// the kinds below. A file or record that names its family (the SBSNAP or
// SBWAL magic, a CRC-valid op) at a version or kind this build does not
// speak is ErrUnknownVersion, which does not wrap ErrCorrupt: every path
// that would otherwise delete, truncate or export as empty what it cannot
// parse refuses instead and leaves every byte in place. Only a file that is
// actually torn — bad CRC, a short header, a record cut off — is cut back; a
// CRC-valid record that does not decode is ErrCorrupt, and is not cut either.
//
// # Group commit
//
// Commit has one path: the record joins its program's pending queue, and the
// appender that finds no flush in progress leads — it writes every record
// queued by then (up to Options.MaxBatch, its own first) as one buffered
// write and one fsync, hands the result to the others, and passes the lead
// to the head of whatever queued meanwhile. Callers block until their own
// record's group is durable, so the write-ahead contract holds for each
// record; concurrent appenders share the syscalls, and for a lone appender
// the path is a direct write. No appender serves a group that does not hold
// its own record, and the package starts no goroutine. A failed group is
// rolled back whole and every appender in it gets the error. This is the
// aggregation-node batching move the sensor-network aggregation literature
// keeps rediscovering: the aggregator is the throughput bottleneck, and
// amortizing its per-message cost is what restores scale.
//
// By default writes go straight to the operating system without fsync:
// state survives process death (kill -9, panics, OOM) but a machine-level
// crash can lose the last instants of un-synced journal. Options.Fsync
// forces an fsync per flushed group for power-failure durability.
//
// # Privacy invariant
//
// The journal stores trace batches exactly as they were submitted — *after*
// the pod-side privacy filter ran. Raw end-user inputs reach the journal
// only when a pod explicitly ships at trace.PrivacyRaw; at the hashed,
// bucketed, and opaque levels the durable state contains only the filtered
// forms. Persisted aggregates are exactly where privacy-preserving schemes
// historically leak, so the journal deliberately never re-derives or widens
// what the pods chose to disclose.
package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrCorrupt is wrapped by malformed journal or snapshot data.
var ErrCorrupt = errors.New("journal: corrupt")

// ErrUnknownVersion is wrapped by a segment, journal header or journal
// record of a format version or op kind this build does not read: data
// another build wrote, never a crash's tail. It does not wrap ErrCorrupt, so
// nothing quarantines, truncates or drops what carries it; the store, the
// replay or the export refuses instead.
var ErrUnknownVersion = errors.New("journal: unknown format version")

// Options configures a Store.
type Options struct {
	// Fsync forces an fsync after every flushed group. Off by default:
	// appends then survive process death but not power loss.
	Fsync bool

	// MaxBatch caps the records flushed as one group (default 256).
	MaxBatch int

	// FS routes every file operation the store performs (journals,
	// snapshots, tether markers). Nil uses the os package directly; tests
	// inject internal/faultfs here to exercise the durability layers under
	// torn writes, ENOSPC, failed fsyncs, and crash points.
	FS FS
}

// Store manages the snapshot and journal files for many programs inside one
// data directory. All methods are safe for concurrent use; operations on
// distinct programs never contend.
type Store struct {
	dir      string
	fs       FS
	fsync    bool
	maxBatch int

	mu    sync.Mutex
	progs map[string]*progLog // program ID -> log state
	byKey map[string]string   // filename key -> program ID
	// fetcher, when set, rehydrates a pruned (archived) snapshot chain on
	// demand: LoadChain on a tethered program fetches the missing base and
	// delta files from the archive tier and writes them back locally.
	fetcher func(programID string) (*ChainExport, error)
}

// progLog is one program's on-disk state: the snapshot chain (base
// generation plus delta generations), the current journal generation, and
// the group-commit queue.
type progLog struct {
	mu      sync.Mutex
	id      string
	key     string
	gen     uint64 // current journal generation (= newest checkpoint gen)
	baseGen uint64 // newest full-snapshot generation
	hasBase bool
	deltas  []uint64 // delta generations in (baseGen, gen], ascending
	f       File     // current journal, opened lazily for append
	size    int64    // current journal length (the truncate point after a torn write)
	wbuf    []byte   // reusable group write buffer
	// broken latches a torn write that could not be truncated away: further
	// appends would land beyond the tear and be silently discarded by
	// recovery's truncate-at-first-bad-record, so they are refused instead.
	broken bool
	// appends counts records written to the current journal generation
	// (including any found on disk at scan/replay time); checkpoints reset
	// it. The hive uses it to skip checkpoints for quiescent programs.
	appends uint64
	// tethered marks a chain whose base/delta files were pruned to the
	// archive tier (a tether marker stands in for them on disk); loads
	// rehydrate through the store's fetcher before reading.
	tethered bool
	// replayed records that Replay ran (or that the program is fresh), so
	// appends cannot clobber an un-replayed torn tail.
	replayed bool
	// scratch is the op-payload encode buffer, owned by the group's leader.
	scratch []byte

	// Group-commit queue: pending records in arrival order, and the emptied
	// slice of the last delivered group, which the next cut swaps back in so
	// a steady stream of appends allocates no queue. flushing means some
	// appender leads a group (a program is never flushed by two appenders at
	// once, so its records land in arrival order); while it is clear the
	// queue is empty. All guarded by pendMu, never held across I/O.
	pendMu   sync.Mutex
	pending  []*pendingAppend
	spare    []*pendingAppend
	flushing bool
}

// pendingAppend is one enqueued operation and its caller's completion
// channel. The op is encoded by the group's leader, straight into the group
// buffer's scratch — the caller's Append blocks until delivery, so the op
// stays immutable for exactly as long as the leader needs it.
type pendingAppend struct {
	op   *Op
	done chan error
}

// errLead is the baton: sent on a queued record's done channel in place of a
// result, it tells that appender its record heads the queue and the next
// group is its to commit.
var errLead = errors.New("journal: lead the next group")

// pendingPool recycles pendingAppends with their completion channels (at
// most one send and one receive per use: a result or the baton). The
// appender returns one after its group is delivered; no leader touches it
// after the send.
var pendingPool = sync.Pool{New: func() any { return &pendingAppend{done: make(chan error, 1)} }}

// The magics this build writes and reads. Each is a family prefix, one
// version character and a newline; checkMagic tells another version of the
// same family from a file that is not one.
const (
	walMagic  = "SBWAL1\n"
	snapMagic = "SBSNAP4\n"
)

// checkMagic checks that data opens with magic. It returns ErrUnknownVersion
// when data opens with magic's family at another version, and ErrCorrupt for
// anything else, a torn prefix of magic included. where names the source.
func checkMagic(data []byte, magic, where string) error {
	if len(data) >= len(magic) && string(data[:len(magic)]) == magic {
		return nil
	}
	family := magic[:len(magic)-2]
	if v := len(family); len(data) > v && string(data[:v]) == family && data[v] != magic[v] {
		return fmt.Errorf("%w: %s is %s version %q; this build reads version %q only", ErrUnknownVersion, where, family, data[v], magic[v])
	}
	return fmt.Errorf("%w: bad %s magic in %s", ErrCorrupt, family, where)
}

// Open opens (creating if needed) a data directory and indexes the
// snapshot/journal files already in it.
func Open(dir string, opts Options) (*Store, error) {
	vfs := opts.FS
	if vfs == nil {
		vfs = OSFS()
	}
	if err := vfs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		fs:       vfs,
		fsync:    opts.Fsync,
		maxBatch: opts.MaxBatch,
		progs:    make(map[string]*progLog),
		byKey:    make(map[string]string),
	}
	if s.maxBatch <= 0 {
		s.maxBatch = 256
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// fileKey derives the filename-safe key for a program ID.
func fileKey(programID string) string {
	sum := sha256.Sum256([]byte(programID))
	return hex.EncodeToString(sum[:8])
}

// parseName splits "wal-<key>-<gen>.log", "snap-<key>-<gen>.snap", and
// "delta-<key>-<gen>.snap".
func parseName(name string) (kind, key string, gen uint64, ok bool) {
	var ext string
	switch {
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
		kind, ext = "wal", ".log"
	case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
		kind, ext = "snap", ".snap"
	case strings.HasPrefix(name, "delta-") && strings.HasSuffix(name, ".snap"):
		kind, ext = "delta", ".snap"
	default:
		return "", "", 0, false
	}
	body := strings.TrimSuffix(name[len(kind)+1:], ext)
	i := strings.LastIndexByte(body, '-')
	if i <= 0 {
		return "", "", 0, false
	}
	g, err := strconv.ParseUint(body[i+1:], 10, 64)
	if err != nil {
		return "", "", 0, false
	}
	return kind, body[:i], g, true
}

// walPath, snapPath and deltaPath spell the chain's file names; parseName
// reads them back.
func walPath(dir, key string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%s-%d.log", key, gen))
}

func snapPath(dir, key string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%s-%d.snap", key, gen))
}

func deltaPath(dir, key string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("delta-%s-%d.snap", key, gen))
}

// scan indexes existing files: per program, the newest full snapshot is the
// chain base, delta generations above it extend the chain, and the current
// generation is the highest of any file; stale older generations are
// removed.
func (s *Store) scan() error {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("journal: scan: %w", err)
	}
	type genState struct {
		snapGen, walGen uint64
		hasSnap, hasWal bool
		deltas          []uint64
	}
	seen := make(map[string]*genState)
	tethers := make(map[string]*tetherMarker)
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			_ = s.fs.Remove(filepath.Join(s.dir, name)) // torn snapshot write
			continue
		}
		if key, ok := parseTetherName(name); ok {
			if tm, err := s.readTether(key); err == nil {
				tethers[key] = tm
			} else {
				// An unreadable tether marker is dead weight: the chain it
				// described is unreachable either way, so drop it rather than
				// letting it shadow a future chain at the same key.
				_ = s.fs.Remove(filepath.Join(s.dir, name))
			}
			continue
		}
		kind, key, gen, ok := parseName(name)
		if !ok {
			continue
		}
		g := seen[key]
		if g == nil {
			g = &genState{}
			seen[key] = g
		}
		switch kind {
		case "snap":
			if !g.hasSnap || gen > g.snapGen {
				g.snapGen, g.hasSnap = gen, true
			}
		case "wal":
			if !g.hasWal || gen > g.walGen {
				g.walGen, g.hasWal = gen, true
			}
		case "delta":
			g.deltas = append(g.deltas, gen)
		}
	}
	// Pruned chains: the tether marker stands in for the base and delta
	// files it pruned. A local base at or above the tethered one supersedes
	// the marker (a later full checkpoint compacted the chain locally).
	for key, tm := range tethers {
		g := seen[key]
		if g == nil {
			g = &genState{}
			seen[key] = g
		}
		if g.hasSnap && g.snapGen >= tm.BaseGen {
			_ = s.fs.Remove(s.tetherPath(key))
			delete(tethers, key)
			continue
		}
		g.snapGen, g.hasSnap = tm.BaseGen, true
		g.deltas = append(g.deltas, tm.Deltas...)
	}
	for key, g := range seen {
		gen := g.walGen
		if g.hasSnap && g.snapGen > gen {
			gen = g.snapGen
		}
		var deltas []uint64
		for _, dg := range g.deltas {
			if dg > gen {
				gen = dg
			}
		}
		sort.Slice(g.deltas, func(i, j int) bool { return g.deltas[i] < g.deltas[j] })
		for _, dg := range g.deltas {
			if dg > g.snapGen || !g.hasSnap {
				if n := len(deltas); n > 0 && deltas[n-1] == dg {
					continue // a tethered delta that is also still local
				}
				deltas = append(deltas, dg)
			}
		}
		pl := &progLog{
			key:      key,
			gen:      gen,
			baseGen:  g.snapGen,
			hasBase:  g.hasSnap,
			deltas:   deltas,
			tethered: tethers[key] != nil,
		}
		id, err := s.programIDFor(pl, tethers[key])
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				// A probe hit a transient I/O error (EIO on an intact file):
				// the chain may be perfectly valid, so refuse to open the
				// store rather than quarantine acked state off a flaky read.
				return fmt.Errorf("journal: scan: %w", err)
			}
			// Nothing under this key is readable — every probe found the
			// journal header, snapshot, delta, and tether missing or corrupt.
			// Acked state always leaves at least one of those durably intact,
			// so these remains are a creation that never completed; quarantine
			// them instead of refusing to open the whole store.
			_ = s.removeKeyFiles(key) // what stays is quarantined again next Open
			continue
		}
		pl.id = id
		s.progs[id] = pl
		s.byKey[key] = id
		s.cleanStale(pl)
	}
	return nil
}

// programIDFor recovers the program ID recorded in a key's newest journal,
// base snapshot, delta header, or tether marker (one of them exists at the
// current chain by construction). The returned error wraps ErrCorrupt only
// when every probe found its file missing, empty, or corrupt — the scan's
// quarantine condition; a transient read failure (EIO on an intact file) or
// a file of a version this build does not read (ErrUnknownVersion) propagates
// as-is so the caller refuses to open rather than deletes.
func (s *Store) programIDFor(pl *progLog, tm *tetherMarker) (string, error) {
	var transient error
	probeFailed := func(err error) {
		if transient == nil && !errors.Is(err, os.ErrNotExist) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.EOF) {
			transient = err
		}
	}
	id, err := readWALHeader(s.fs, walPath(s.dir, pl.key, pl.gen))
	if err == nil {
		return id, nil
	}
	probeFailed(err)
	if pl.hasBase {
		id, err := readSnapshotID(s.fs, snapPath(s.dir, pl.key, pl.baseGen))
		if err == nil {
			return id, nil
		}
		probeFailed(err)
	}
	if n := len(pl.deltas); n > 0 {
		id, err := readSnapshotID(s.fs, deltaPath(s.dir, pl.key, pl.deltas[n-1]))
		if err == nil {
			return id, nil
		}
		probeFailed(err)
	}
	if tm != nil && tm.ProgramID != "" {
		return tm.ProgramID, nil
	}
	if transient != nil {
		return "", fmt.Errorf("journal: identify key %s: %w", pl.key, transient)
	}
	return "", fmt.Errorf("%w: no readable header for key %s", ErrCorrupt, pl.key)
}

// removeKeyFiles deletes everything the directory holds under a key: chain
// files, journals and the tether marker.
func (s *Store) removeKeyFiles(key string) error {
	entries, err := s.fs.ReadDir(s.dir)
	for _, e := range entries {
		_, k, _, ok := parseName(e.Name())
		if !ok {
			k, ok = parseTetherName(e.Name())
		}
		if ok && k == key {
			if rerr := s.fs.Remove(filepath.Join(s.dir, e.Name())); rerr != nil && err == nil {
				err = rerr
			}
		}
	}
	return err
}

// Remove deletes a program's durable state — snapshot chain, tether marker
// and journal — and forgets the program. The caller guarantees that no Append
// or checkpoint for it runs concurrently or later. A crash part-way leaves an
// older, still loadable chain: the removal is to be repeated.
func (s *Store) Remove(programID string) error {
	s.mu.Lock()
	pl := s.progs[programID]
	if pl != nil {
		delete(s.progs, programID)
		delete(s.byKey, pl.key)
	}
	s.mu.Unlock()
	if pl == nil {
		return nil
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.f != nil {
		_ = pl.f.Close() // nothing in it is wanted any more
		pl.f = nil
	}
	if err := s.removeKeyFiles(pl.key); err != nil {
		return fmt.Errorf("journal: remove %s: %w", programID, err)
	}
	return nil
}

// cleanStale removes files superseded by the program's current chain:
// snapshots and deltas below the base, deltas above the base that fell out
// of the chain, and journals below the current generation.
func (s *Store) cleanStale(pl *progLog) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	inChain := make(map[uint64]bool, len(pl.deltas))
	for _, dg := range pl.deltas {
		inChain[dg] = true
	}
	for _, e := range entries {
		kind, k, g, ok := parseName(e.Name())
		if !ok || k != pl.key {
			continue
		}
		stale := false
		switch kind {
		case "wal":
			stale = g < pl.gen
		case "snap":
			stale = !pl.hasBase || g < pl.baseGen
		case "delta":
			stale = !inChain[g]
		}
		if stale {
			_ = s.fs.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// Programs returns the IDs of every program with persisted state, sorted.
func (s *Store) Programs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.progs))
	for id := range s.progs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// log resolves (creating if absent) a program's log state.
func (s *Store) log(programID string) *progLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	pl, ok := s.progs[programID]
	if !ok {
		pl = &progLog{id: programID, key: fileKey(programID), gen: 0, replayed: true}
		s.progs[programID] = pl
		s.byKey[pl.key] = programID
	}
	return pl
}

// LoadChain returns the program's snapshot chain: the base full snapshot
// (nil when the program has never been fully checkpointed) and the delta
// segments layered over it, in application order. A chain pruned to the
// archive tier is rehydrated through the chain fetcher first.
func (s *Store) LoadChain(programID string) (*ProgramSnapshot, []*ProgramSnapshot, error) {
	pl := s.log(programID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	c, err := s.chainLocked(pl, true, true)
	if err != nil {
		return nil, nil, err
	}
	return c.LoadChain(programID)
}

// decodeChain is the one segment decode, whichever store the bytes came
// from: each segment's CRC frame is checked, each must name programID, and
// the generations must ascend.
func decodeChain(programID string, c *ChainExport) (*ProgramSnapshot, []*ProgramSnapshot, error) {
	if !c.HasBase {
		if len(c.Deltas) > 0 {
			return nil, nil, fmt.Errorf("%w: chain for %s has delta segments and no base", ErrCorrupt, programID)
		}
		return nil, nil, nil
	}
	segs := append([]ChainDelta{{Gen: c.BaseGen, Data: c.Base}}, c.Deltas...)
	out := make([]*ProgramSnapshot, len(segs))
	for i, seg := range segs {
		name := fmt.Sprintf("segment %d of chain %s (generation %d)", i, fileKey(programID), seg.Gen)
		snap, err := decodeSnapshot(seg.Data, name)
		switch {
		case err != nil:
			return nil, nil, err
		case snap.ProgramID != programID:
			return nil, nil, fmt.Errorf("%w: %s belongs to %q, want %q", ErrCorrupt, name, snap.ProgramID, programID)
		case i > 0 && seg.Gen <= segs[i-1].Gen:
			return nil, nil, fmt.Errorf("%w: %s does not follow generation %d", ErrCorrupt, name, segs[i-1].Gen)
		}
		out[i] = snap
	}
	return out[0], out[1:], nil
}

// Replay feeds every journaled operation after the newest checkpoint to
// apply, in append order, each under a receipt of its own. A torn tail
// (crash mid-append) is truncated so subsequent appends extend a valid
// journal. A CRC-valid record that does not decode is corruption, not a torn
// tail: Replay fails naming the file and the record, and cuts nothing.
// Replay must run before the first Commit for a recovered program; it
// returns the number of operations replayed.
//
// A replayed OpBatchColumnar's Raw aliases the journal bytes Replay read and
// is valid only during the apply call it is handed to: an apply that keeps
// batch bytes copies them. No other field of a replayed op borrows anything.
func (s *Store) Replay(programID string, apply func(Receipt) error) (int, error) {
	pl := s.log(programID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	path := walPath(s.dir, pl.key, pl.gen)
	data, err := s.fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		pl.replayed = true
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("journal: replay %s: %w", programID, err)
	}
	id, body, err := splitWALHeader(data, path)
	if errors.Is(err, ErrUnknownVersion) {
		return 0, fmt.Errorf("journal: replay %s: %w", programID, err)
	}
	if err != nil {
		// Torn header: the creation write never completed, so no record in
		// this file was ever acked. Reset it to empty; the next append
		// writes a fresh header.
		if terr := s.fs.Truncate(path, 0); terr != nil {
			return 0, fmt.Errorf("journal: reset torn wal header of %s: %w", programID, terr)
		}
		pl.replayed = true
		pl.appends = 0
		return 0, nil
	}
	if id != programID {
		return 0, fmt.Errorf("%w: journal for %q found under key of %q", ErrCorrupt, id, programID)
	}
	n, valid, err := replayRecords(fmt.Sprintf("%s (%s)", programID, filepath.Base(path)), body, apply)
	if err != nil {
		return n, err
	}
	if valid < len(body) {
		// Torn tail: never applied, never acked.
		if err := s.fs.Truncate(path, int64(len(data)-len(body)+valid)); err != nil {
			return n, fmt.Errorf("journal: truncate torn tail of %s: %w", programID, err)
		}
	}
	pl.replayed = true
	pl.appends = uint64(n)
	return n, nil
}

// replayRecords is the one record loop, whichever store the bytes came from:
// it walks CRC-framed records, decoding and applying each when apply is set,
// and returns how many it passed and the bytes they cover. It stops without
// error at the first torn record (a bad CRC, a frame cut off). A CRC-valid
// record is no crash's tail, since a torn write cannot leave one: decoding,
// one of an op version or kind this build does not read fails the loop with
// ErrUnknownVersion, and one that does not decode with ErrCorrupt, so nothing
// after it is cut. where names the journal in errors.
func replayRecords(where string, body []byte, apply func(Receipt) error) (n, valid int, err error) {
	for rest := body; len(rest) > 0; {
		payload, next, ok := readRecord(rest)
		if !ok {
			break
		}
		if apply != nil {
			op, err := decodeOp(payload)
			if err != nil {
				return n, valid, fmt.Errorf("journal: replay %s record %d: %w", where, n, err)
			}
			if err := apply(Receipt{op: op, replay: true}); err != nil {
				return n, valid, fmt.Errorf("journal: replay %s op %d: %w", where, n, err)
			}
		}
		n++
		valid = len(body) - len(next)
		rest = next
	}
	return n, valid, nil
}

// Generation returns the program's current journal generation: that of its
// newest checkpoint, 0 before the first.
func (s *Store) Generation(programID string) uint64 {
	pl := s.log(programID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.gen
}

// AppendsSinceCheckpoint reports how many records sit in the program's
// current journal generation — the replay debt a checkpoint would retire.
// Zero means a checkpoint would capture nothing the chain doesn't already
// hold.
func (s *Store) AppendsSinceCheckpoint(programID string) uint64 {
	pl := s.log(programID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.appends
}

// Commit journals one operation for the program and returns its receipt,
// which is what a caller applies the operation under. The record is on disk
// (in the OS, fsynced with Options.Fsync) when Commit returns. The record may
// share its write and fsync with concurrent commits; the call blocks until
// the record's group is durable, and a group that fails fails every commit
// in it. A nil Store records nothing and returns the receipt at once, so an
// in-memory hive takes the road a durable one does.
func (s *Store) Commit(programID string, op *Op) (Receipt, error) {
	if s == nil {
		return Receipt{op: op}, nil
	}
	pl := s.log(programID)
	p := pendingPool.Get().(*pendingAppend)
	p.op = op
	pl.pendMu.Lock()
	pl.pending = append(pl.pending, p)
	lead := !pl.flushing
	pl.flushing = true
	pl.pendMu.Unlock()
	var err error
	if !lead {
		err = <-p.done
		lead = err == errLead
	}
	if lead {
		err = s.commitGroup(pl)
	}
	p.op = nil
	pendingPool.Put(p)
	if err != nil {
		return Receipt{}, err
	}
	return Receipt{op: op}, nil
}

// Append is Commit for a caller that applies nothing: it drops the receipt.
func (s *Store) Append(programID string, op *Op) error {
	_, err := s.Commit(programID, op)
	return err
}

// commitGroup is the leader's turn: the calling appender's record heads the
// pending queue, so it cuts a group of up to maxBatch records (its own
// first), writes the group as one buffered write plus (with Options.Fsync)
// one fsync, and delivers the result to every other appender in it. Then it
// hands the lead to the head of whatever queued during the flush, or, with
// nothing queued, clears the flushing claim for the next Append to take.
func (s *Store) commitGroup(pl *progLog) error {
	batch := pl.cutGroup(s.maxBatch)
	err := s.flushGroup(pl, batch)
	for _, p := range batch[1:] {
		p.done <- err
	}
	clear(batch)
	var next *pendingAppend
	pl.pendMu.Lock()
	pl.spare = batch[:0]
	if len(pl.pending) > 0 {
		next = pl.pending[0]
	}
	pl.flushing = next != nil
	pl.pendMu.Unlock()
	if next != nil {
		next.done <- errLead
	}
	return err
}

// cutGroup takes the next group of at most limit pending records, leaving
// the queue on the spare slice. Only the leader calls it, and it hands the
// group's slice back as the next spare once delivered.
func (pl *progLog) cutGroup(limit int) []*pendingAppend {
	pl.pendMu.Lock()
	defer pl.pendMu.Unlock()
	batch := pl.pending
	rest := pl.spare[:0]
	if len(batch) > limit {
		rest = append(rest, batch[limit:]...)
		clear(batch[limit:])
		batch = batch[:limit]
	}
	pl.pending, pl.spare = rest, nil
	return batch
}

// flushGroup writes one group of records as a single write (+fsync) under
// the program's file lock, encoding each op straight into the reused group
// buffer — no per-record allocations.
func (s *Store) flushGroup(pl *progLog, batch []*pendingAppend) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	buf := pl.wbuf[:0]
	for _, p := range batch {
		pl.scratch = appendOp(pl.scratch[:0], p.op)
		buf = appendRecord(buf, pl.scratch)
	}
	pl.wbuf = buf[:0]
	if err := s.writeFramesLocked(pl, buf); err != nil {
		return err
	}
	pl.appends += uint64(len(batch))
	return nil
}

// writeFramesLocked lands one or more framed records at the end of the
// program's journal, durably (per Options.Fsync). A failed or unsynced
// write is rolled back by truncating to the last good record boundary —
// otherwise later appends would be acknowledged *beyond* torn bytes, and
// recovery's truncate-at-first-bad-record would silently discard them. If
// the rollback itself fails the journal is poisoned: further appends are
// refused until a checkpoint rotates to a fresh generation.
func (s *Store) writeFramesLocked(pl *progLog, buf []byte) error {
	if pl.broken {
		return fmt.Errorf("journal: %s has an unremovable torn tail; appends disabled until checkpoint", pl.id)
	}
	if !pl.replayed {
		return fmt.Errorf("journal: append to %s before Replay", pl.id)
	}
	if pl.f == nil {
		f, size, err := openWAL(s.fs, walPath(s.dir, pl.key, pl.gen), pl.id)
		if err != nil {
			return err
		}
		pl.f = f
		pl.size = size
	}
	if _, err := pl.f.Write(buf); err != nil {
		s.rollbackTornLocked(pl)
		return fmt.Errorf("journal: append %s: %w", pl.id, err)
	}
	if s.fsync {
		if err := pl.f.Sync(); err != nil {
			// The bytes may sit in the page cache unsynced: the caller will
			// reject the batch, so the record must not replay either.
			s.rollbackTornLocked(pl)
			return fmt.Errorf("journal: sync %s: %w", pl.id, err)
		}
	}
	pl.size += int64(len(buf))
	return nil
}

// rollbackTornLocked cuts the journal back to the last good record
// boundary after a failed write, poisoning the generation if the cut
// fails.
func (s *Store) rollbackTornLocked(pl *progLog) {
	if err := pl.f.Truncate(pl.size); err != nil {
		pl.broken = true
	}
}

// Checkpoint installs a new *full* snapshot for snap.ProgramID, compacting
// its chain: the snapshot is written to a temp file, fsynced, and atomically
// renamed; only then is a fresh journal generation started and every
// superseded file (previous base, delta segments, old journal) deleted. The
// caller must guarantee no Append for this program runs concurrently (the
// hive holds its per-program checkpoint gate).
//
// The snapshot lands at the generation after the program's current one, or
// after above when that is higher: a chain imported from another directory
// continues past the generation it was cut at, which is the order the
// archive tier ranks manifests by.
func (s *Store) Checkpoint(snap *ProgramSnapshot, above uint64) error {
	pl := s.log(snap.ProgramID)
	pl.mu.Lock()
	defer pl.mu.Unlock()

	next := max(pl.gen, above) + 1
	if err := writeSnapshotFile(s.fs, snapPath(s.dir, pl.key, next), snap); err != nil {
		return err
	}
	// New base is durable; switch appends over and drop the old chain.
	if pl.f != nil {
		_ = pl.f.Close()
		pl.f = nil
	}
	_ = s.fs.Remove(walPath(s.dir, pl.key, pl.gen))
	if pl.hasBase {
		_ = s.fs.Remove(snapPath(s.dir, pl.key, pl.baseGen))
	}
	for _, dg := range pl.deltas {
		_ = s.fs.Remove(deltaPath(s.dir, pl.key, dg))
	}
	if pl.tethered {
		// The fresh full base supersedes the whole archived chain: the
		// local directory is self-sufficient again.
		_ = s.fs.Remove(s.tetherPath(pl.key))
		pl.tethered = false
	}
	pl.gen = next
	pl.baseGen = next
	pl.hasBase = true
	pl.deltas = nil
	pl.replayed = true
	pl.appends = 0
	pl.broken = false // a poisoned generation was rotated away
	return nil
}

// CheckpointDelta installs an *incremental* snapshot: a delta segment
// holding only the state that changed since the previous checkpoint,
// layered over the existing chain, and rotates the journal (whose ops the
// delta captures). The write is atomic like a full checkpoint's; the caller
// holds the same no-concurrent-appends gate. Requires an existing base
// snapshot — the first checkpoint for a program must be full.
func (s *Store) CheckpointDelta(snap *ProgramSnapshot) error {
	pl := s.log(snap.ProgramID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if !pl.hasBase {
		return fmt.Errorf("journal: delta checkpoint for %s without a base snapshot", snap.ProgramID)
	}
	next := pl.gen + 1
	if err := writeSnapshotFile(s.fs, deltaPath(s.dir, pl.key, next), snap); err != nil {
		return err
	}
	if pl.f != nil {
		_ = pl.f.Close()
		pl.f = nil
	}
	_ = s.fs.Remove(walPath(s.dir, pl.key, pl.gen))
	pl.deltas = append(pl.deltas, next)
	pl.gen = next
	pl.replayed = true
	pl.appends = 0
	pl.broken = false // a poisoned generation was rotated away
	return nil
}

// Close closes every open journal file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, pl := range s.progs {
		pl.mu.Lock()
		if pl.f != nil {
			if err := pl.f.Close(); err != nil && first == nil {
				first = err
			}
			pl.f = nil
		}
		pl.mu.Unlock()
	}
	return first
}

// --- journal file helpers ---

// openWAL opens (creating with a header if new) a journal for appending,
// returning its current length. O_APPEND keeps writes landing at the true
// end of file even after a recovery truncated a torn tail.
func openWAL(vfs FS, path, programID string) (File, int64, error) {
	// A header that never finished landing (the creation write torn by a
	// crash or injected fault) means nothing in this file was ever acked —
	// a failed header write fails the append that triggered it. Reset such
	// a file to empty rather than appending records after the torn header,
	// which would ack writes a recovery scan could never attribute.
	switch id, err := readWALHeader(vfs, path); {
	case err == nil && id != programID:
		return nil, 0, fmt.Errorf("%w: journal for %q found under key of %q", ErrCorrupt, id, programID)
	case errors.Is(err, ErrUnknownVersion):
		return nil, 0, fmt.Errorf("journal: open wal: %w", err)
	case errors.Is(err, ErrCorrupt):
		if terr := vfs.Truncate(path, 0); terr != nil {
			return nil, 0, fmt.Errorf("journal: reset torn wal header: %w", terr)
		}
	}
	f, err := vfs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, 0, fmt.Errorf("journal: stat wal: %w", err)
	}
	size := st.Size()
	if size == 0 {
		hdr := walHeader(programID)
		if _, err := f.Write(hdr); err != nil {
			_ = f.Close()
			return nil, 0, fmt.Errorf("journal: write wal header: %w", err)
		}
		size = int64(len(hdr))
	}
	return f, size, nil
}

// walHeader builds the header a journal file for programID starts with.
func walHeader(programID string) []byte {
	hdr := []byte(walMagic)
	hdr = binary.AppendUvarint(hdr, uint64(len(programID)))
	return append(hdr, programID...)
}

// readWALHeader returns the program ID recorded in a journal header.
func readWALHeader(vfs FS, path string) (string, error) {
	f, err := vfs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return "", err
	}
	defer f.Close()
	buf := make([]byte, len(walMagic)+binary.MaxVarintLen64+256)
	n, err := f.Read(buf)
	if err != nil && n == 0 {
		return "", err
	}
	id, _, err := splitWALHeader(buf[:n], path)
	return id, err
}

// splitWALHeader validates the header and returns (programID, records);
// where names the source for error messages.
func splitWALHeader(data []byte, where string) (string, []byte, error) {
	if err := checkMagic(data, walMagic, where); err != nil {
		return "", nil, err
	}
	rest := data[len(walMagic):]
	n, sz := binary.Uvarint(rest)
	if sz <= 0 || n > uint64(len(rest)-sz) {
		return "", nil, fmt.Errorf("%w: bad wal header in %s", ErrCorrupt, where)
	}
	id := string(rest[sz : sz+int(n)])
	return id, rest[sz+int(n):], nil
}

// appendRecord frames one payload: uvarint length, payload, CRC32.
func appendRecord(buf, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	return append(buf, crc[:]...)
}

// readRecord unframes the next record; ok is false on a torn or corrupt
// record (recovery truncates there).
func readRecord(data []byte) (payload, rest []byte, ok bool) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || n > uint64(len(data)-sz) {
		return nil, nil, false
	}
	body := data[sz:]
	if uint64(len(body)) < n+4 {
		return nil, nil, false
	}
	payload = body[:n]
	want := binary.LittleEndian.Uint32(body[n : n+4])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, nil, false
	}
	return payload, body[n+4:], true
}
