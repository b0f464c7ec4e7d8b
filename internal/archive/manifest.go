package archive

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/journal"
)

// Manifest describes one program's archived chain as of one archiver sync:
// which segment objects hold its base, deltas, and journal chunks, and how
// far the journal had advanced. Manifests are immutable — each sync that
// changes anything writes a new one at a higher Seq — and self-ranking, so
// readers reconcile concurrent writers without coordination: the winner is
// the lexicographically greatest (WALGen, WALLen, Seq, Writer), i.e. the
// newest generation, then the longest archived journal within it.
type Manifest struct {
	ProgramID string `json:"programId"`
	// Seq increments per manifest this writer ships for this program.
	Seq uint64 `json:"seq"`
	// Writer names the replica that wrote this manifest (tie-break only).
	Writer string `json:"writer"`

	HasBase bool   `json:"hasBase"`
	BaseGen uint64 `json:"baseGen,omitempty"`
	// BaseKey is the KindFull segment object holding the base snapshot.
	BaseKey string          `json:"baseKey,omitempty"`
	Deltas  []ManifestDelta `json:"deltas,omitempty"`

	// WALGen is the journal generation the chunks below belong to; WALLen
	// is the total record-region bytes they cover (chunks are contiguous
	// from offset 0). The valid prefix of a generation only ever grows, so
	// WALLen orders two manifests at the same generation.
	WALGen   uint64         `json:"walGen"`
	WALLen   uint64         `json:"walLen"`
	WALParts []ManifestPart `json:"walParts,omitempty"`
}

// ManifestDelta names the KindDelta segment for one delta generation.
type ManifestDelta struct {
	Gen uint64 `json:"gen"`
	Key string `json:"key"`
}

// ManifestPart names one KindWALChunk segment: Len payload bytes starting
// Offset bytes into generation WALGen's record region.
type ManifestPart struct {
	Part   uint64 `json:"part"`
	Key    string `json:"key"`
	Offset uint64 `json:"offset"`
	Len    uint64 `json:"len"`
}

// newer reports whether m should win reconciliation against o.
func (m *Manifest) newer(o *Manifest) bool {
	if m.WALGen != o.WALGen {
		return m.WALGen > o.WALGen
	}
	if m.WALLen != o.WALLen {
		return m.WALLen > o.WALLen
	}
	if m.Seq != o.Seq {
		return m.Seq > o.Seq
	}
	return m.Writer > o.Writer
}

// contentHash is the 12-hex-digit content address embedded in segment keys:
// replicas archiving identical bytes collide onto one object.
func contentHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6])
}

// Object-key layout. Everything for a program groups under the same
// filename-safe key the journal derives from its ID; a segment's key names
// its generation, its kind (and, for a journal chunk, its part) and its
// content.
var kindNames = map[Kind]string{KindFull: "full", KindDelta: "delta", KindWALChunk: "wal"}

func segmentKey(fileKey string, kind Kind, gen, part uint64, hash string) string {
	name := kindNames[kind]
	if kind == KindWALChunk {
		name = fmt.Sprintf("%s-p%06d", name, part)
	}
	return fmt.Sprintf("seg/%s/g%d-%s-%s", fileKey, gen, name, hash)
}

func manifestKey(fileKey string, seq uint64, writer string) string {
	return fmt.Sprintf("manifest/%s/%016d-%s", fileKey, seq, writer)
}

func manifestPrefix(fileKey string) string { return "manifest/" + fileKey + "/" }

// encodeManifest wraps the manifest JSON in a KindManifest segment frame.
func encodeManifest(m *Manifest) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("archive: encode manifest: %w", err)
	}
	return EncodeSegment(&Segment{Kind: KindManifest, ProgramID: m.ProgramID, Gen: m.WALGen, Payload: body}), nil
}

// decodeManifest validates a manifest object's frame and parses the JSON.
func decodeManifest(data []byte) (*Manifest, error) {
	seg, err := DecodeSegment(data)
	if err != nil {
		return nil, err
	}
	if seg.Kind != KindManifest {
		return nil, fmt.Errorf("%w: kind %d where manifest expected", ErrBadSegment, seg.Kind)
	}
	var m Manifest
	if err := json.Unmarshal(seg.Payload, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest json: %v", ErrBadSegment, err)
	}
	if m.ProgramID != seg.ProgramID {
		return nil, fmt.Errorf("%w: manifest body names %q, frame names %q", ErrBadSegment, m.ProgramID, seg.ProgramID)
	}
	return &m, nil
}

// loadWinningManifest reconciles every manifest object under a program's
// key and returns the winner (nil when the program has no readable
// manifest). Unreadable or torn manifest objects are skipped — each
// manifest is self-contained, so older intact ones keep the program
// recoverable.
func loadWinningManifest(obj ObjectStore, fileKey string) (*Manifest, error) {
	keys, err := obj.List(manifestPrefix(fileKey))
	if err != nil {
		return nil, err
	}
	var win *Manifest
	for _, key := range keys {
		data, err := obj.Get(key)
		if err != nil {
			continue
		}
		m, err := decodeManifest(data)
		if err != nil {
			continue
		}
		if win == nil || m.newer(win) {
			win = m
		}
	}
	return win, nil
}

// Programs lists every program with at least one readable manifest in the
// store, sorted by ID.
func Programs(obj ObjectStore) ([]string, error) {
	keys, err := obj.List("manifest/")
	if err != nil {
		return nil, err
	}
	seen := make(map[string]string) // fileKey -> programID
	for _, key := range keys {
		parts := strings.Split(key, "/")
		if len(parts) != 3 {
			continue
		}
		fk := parts[1]
		if _, ok := seen[fk]; ok {
			continue
		}
		if m, err := loadWinningManifest(obj, fk); err == nil && m != nil {
			seen[fk] = m.ProgramID
		}
	}
	ids := make([]string, 0, len(seen))
	for _, id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// fetchSegment gets and validates one segment object, checking it against
// the kind and program the manifest claimed for it.
func fetchSegment(obj ObjectStore, key string, kind Kind, programID string) (*Segment, error) {
	data, err := obj.Get(key)
	if err != nil {
		return nil, err
	}
	seg, err := DecodeSegment(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	if seg.Kind != kind || seg.ProgramID != programID {
		return nil, fmt.Errorf("%w: %s holds kind %d for %q, manifest expected kind %d for %q",
			ErrBadSegment, key, seg.Kind, seg.ProgramID, kind, programID)
	}
	return seg, nil
}

// Load rebuilds a program's chain purely from the archive store: the
// winning manifest's base, deltas, and contiguous journal chunks, assembled
// into the same ChainExport the live journal would export. Returns nil when
// the store holds nothing for the program.
func Load(obj ObjectStore, programID string) (*journal.ChainExport, error) {
	fk := journal.FileKey(programID)
	m, err := loadWinningManifest(obj, fk)
	if err != nil || m == nil {
		return nil, err
	}
	out := &journal.ChainExport{ProgramID: programID, WALGen: m.WALGen}
	if m.HasBase {
		seg, err := fetchSegment(obj, m.BaseKey, KindFull, programID)
		if err != nil {
			return nil, err
		}
		out.HasBase, out.BaseGen, out.Base = true, m.BaseGen, seg.Payload
	}
	for _, d := range m.Deltas {
		seg, err := fetchSegment(obj, d.Key, KindDelta, programID)
		if err != nil {
			return nil, err
		}
		out.Deltas = append(out.Deltas, journal.ChainDelta{Gen: d.Gen, Data: seg.Payload})
	}
	wal := make([]byte, 0, m.WALLen)
	for _, p := range m.WALParts {
		seg, err := fetchSegment(obj, p.Key, KindWALChunk, programID)
		if err != nil {
			return nil, err
		}
		if seg.Gen != m.WALGen || seg.Offset != uint64(len(wal)) || uint64(len(seg.Payload)) != p.Len {
			return nil, fmt.Errorf("%w: wal chunk %s does not extend gen %d at offset %d", ErrBadSegment, p.Key, m.WALGen, len(wal))
		}
		wal = append(wal, seg.Payload...)
	}
	if uint64(len(wal)) != m.WALLen {
		return nil, fmt.Errorf("%w: manifest for %s covers %d wal bytes, chunks held %d", ErrBadSegment, programID, m.WALLen, len(wal))
	}
	if len(wal) > 0 {
		out.WAL = wal
	}
	return out, nil
}

// ChainFetcher adapts an ObjectStore to the journal's rehydration hook
// (journal.Store.SetChainFetcher): loading a tether-pruned chain pulls its
// archived generations back through Load.
func ChainFetcher(obj ObjectStore) func(programID string) (*journal.ChainExport, error) {
	return func(programID string) (*journal.ChainExport, error) {
		return Load(obj, programID)
	}
}
