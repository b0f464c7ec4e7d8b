package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// ProgramSnapshot is one program's full durable state at a checkpoint: the
// serialized execution tree (exectree.Encode, which Decode restores
// bit-for-bit including the incremental frontier index), the versioned fix
// set, standing proofs, failure-signature aggregation, ingestion counters,
// collective known-good inputs, the coordinated-sampling fragment buffer,
// and the exactly-once session dedup table as of the checkpoint.
//
// Trace payloads (failure samples, coordinated fragments) are stored in the
// per-trace codec (trace.Encode), not the wire's columnar batch form; fixes
// and proofs in their JSON codecs. All of
// them are post-privacy: the snapshot persists what pods shipped, never
// more (see the package privacy invariant).
// A snapshot is either *full* (Tree set: the complete exectree.Encode
// serialization) or a *delta segment* (TreeDelta set: exectree.EncodeDelta
// bytes holding only the nodes changed since the previous checkpoint, with
// every non-tree field still carried in full — they are small relative to
// the tree and replacing them wholesale keeps chain merging trivial).
// Recovery overlays delta segments over the base in generation order
// (exectree.DecodeChain) and takes the non-tree fields from the newest
// segment.
//
// TreeDelta is opaque here; exectree/delta.go owns its layout. Since delta
// version 2 the changed nodes are written in Encode's pre-order, each entry
// as (depth shared with the previous entry, the edges below it, the node's
// body), so a segment's tree bytes are bounded by the full encoding of the
// same nodes plus one small entry header a node, whatever their depth.
// Segments of version 1 (every entry a whole root path) are still read, so a
// chain may mix both.
//
// A chain segment holds a snapshot in envelope version 2 (see
// encodeSnapshot): the program ID, Tree and TreeDelta as length-prefixed
// binary fields, then every other field as JSON. A decoded snapshot's Tree
// and TreeDelta alias the segment bytes it was read from, so nothing may
// write into them, nor into the bytes of a ChainExport it came from.
// Envelope version 1 (the whole snapshot as JSON, the tree in base64) is
// still read; the envelope's version and the delta encoding's are
// independent.
type ProgramSnapshot struct {
	ProgramID string `json:"programId,omitempty"`
	// Tree is the exectree.Encode serialization (full snapshots only).
	Tree []byte `json:"tree,omitempty"`
	// TreeDelta is the exectree.EncodeDelta serialization (delta segments
	// only): the nodes changed since the previous checkpoint.
	TreeDelta []byte `json:"treeDelta,omitempty"`
	// Fixes are fix JSON documents in ID order.
	Fixes [][]byte `json:"fixes,omitempty"`
	Epoch int      `json:"epoch"`
	// Proofs are proof JSON documents (standing and superseded; readers
	// filter by epoch).
	Proofs [][]byte `json:"proofs,omitempty"`
	// Failures is the per-signature aggregation state.
	Failures []FailureState `json:"failures,omitempty"`

	Ingested      int64 `json:"ingested"`
	Reconstructed int64 `json:"reconstructed"`
	Narrowed      int64 `json:"narrowed"`

	// KnownGood are raw inputs observed to succeed (present only when pods
	// shipped at PrivacyRaw).
	KnownGood [][]int64 `json:"knownGood,omitempty"`
	// Coordinated buffers incomplete coordinated-sampling families:
	// family key -> encoded fragment traces.
	Coordinated map[string][][]byte `json:"coordinated,omitempty"`

	// Sessions is the exactly-once dedup table (session -> contiguous
	// applied-sequence base) as of this checkpoint; SessionsAhead carries
	// any out-of-order applied marks above a session's base. Recovery
	// union-merges both from every program snapshot and replayed batch op.
	Sessions      map[string]uint64   `json:"sessions,omitempty"`
	SessionsAhead map[string][]uint64 `json:"sessionsAhead,omitempty"`
}

// FailureState is the serialized form of one failure signature's fleet-wide
// aggregation — the codec for hive.FailureRecord plus the bookkeeping the
// exported snapshot type omits (distinct reporting pods).
type FailureState struct {
	Signature string `json:"signature"`
	Outcome   uint8  `json:"outcome"`
	Count     int64  `json:"count"`
	// Pods lists the distinct reporting pod IDs.
	Pods []string `json:"pods,omitempty"`
	// Sample is one representative trace (per-trace codec, trace.Encode).
	Sample      []byte `json:"sample,omitempty"`
	Fixed       bool   `json:"fixed,omitempty"`
	InRepairLab bool   `json:"inRepairLab,omitempty"`
}

// encodeSnapshot serializes a snapshot into the CRC-framed byte form of a
// chain segment: what writeSnapshotFile persists and a ChainExport carries.
// The envelope (version 2) is
//
//	"SBSNAP2\n" | uvarint body length | body | CRC32 (IEEE, little endian) of body
//
//	body = uvarint len | program ID
//	     | uvarint len | Tree
//	     | uvarint len | TreeDelta
//	     | the remaining fields as JSON (ProgramSnapshot's tags)
//
// so a reader takes the tree bytes as they lie, where version 1 ("SBSNAP1\n",
// the body the whole snapshot as JSON) made it unquote and base64-decode
// them first. The writer emits version 2 only.
func encodeSnapshot(snap *ProgramSnapshot) ([]byte, error) {
	rest := *snap
	rest.ProgramID, rest.Tree, rest.TreeDelta = "", nil, nil
	state, err := json.Marshal(&rest)
	if err != nil {
		return nil, fmt.Errorf("journal: encode snapshot: %w", err)
	}
	n := uvarintLen(len(snap.ProgramID)) + len(snap.ProgramID) +
		uvarintLen(len(snap.Tree)) + len(snap.Tree) +
		uvarintLen(len(snap.TreeDelta)) + len(snap.TreeDelta) + len(state)
	buf := make([]byte, 0, len(snapMagic)+uvarintLen(n)+n+4)
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, uint64(n))
	start := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(snap.ProgramID)))
	buf = append(buf, snap.ProgramID...)
	buf = binary.AppendUvarint(buf, uint64(len(snap.Tree)))
	buf = append(buf, snap.Tree...)
	buf = binary.AppendUvarint(buf, uint64(len(snap.TreeDelta)))
	buf = append(buf, snap.TreeDelta...)
	buf = append(buf, state...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:])), nil
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v int) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// decodeSnapshot validates the CRC frame and parses the body; where names
// the source for error messages. Tree and TreeDelta alias data.
func decodeSnapshot(data []byte, where string) (*ProgramSnapshot, error) {
	v2, body, err := openSnapshot(data, where)
	if err != nil {
		return nil, err
	}
	if !v2 {
		var snap ProgramSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return nil, fmt.Errorf("%w: snapshot json in %s: %v", ErrCorrupt, where, err)
		}
		return &snap, nil
	}
	id, body, ok := splitField(body)
	tree, body, ok2 := splitField(body)
	delta, state, ok3 := splitField(body)
	if !ok || !ok2 || !ok3 {
		return nil, fmt.Errorf("%w: bad snapshot header in %s", ErrCorrupt, where)
	}
	var snap ProgramSnapshot
	if err := json.Unmarshal(state, &snap); err != nil {
		return nil, fmt.Errorf("%w: snapshot json in %s: %v", ErrCorrupt, where, err)
	}
	snap.ProgramID, snap.Tree, snap.TreeDelta = string(id), tree, delta
	return &snap, nil
}

// openSnapshot checks a segment's magic (either version's: both are the same
// length) and CRC frame and returns its body, reporting whether the
// envelope is version 2.
func openSnapshot(data []byte, where string) (v2 bool, body []byte, err error) {
	v2 = bytes.HasPrefix(data, []byte(snapMagic))
	if !v2 && !bytes.HasPrefix(data, []byte(snapMagicV1)) {
		return false, nil, fmt.Errorf("%w: bad snapshot magic in %s", ErrCorrupt, where)
	}
	body, rest, ok := splitField(data[len(snapMagic):])
	if !ok || len(rest) < 4 {
		return false, nil, fmt.Errorf("%w: truncated snapshot %s", ErrCorrupt, where)
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rest) {
		return false, nil, fmt.Errorf("%w: snapshot checksum mismatch in %s", ErrCorrupt, where)
	}
	return v2, body, nil
}

// splitField splits a uvarint-length-prefixed field off b. The field is a
// subslice of b capped at its own length (nil when empty), so an append to
// it copies rather than overwrite what follows. The length check cannot
// wrap: a hostile prefix near 2^64 is a short field, not a panic.
func splitField(b []byte) (field, rest []byte, ok bool) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return nil, nil, false
	}
	end := sz + int(n)
	if n > 0 {
		field = b[sz:end:end]
	}
	return field, b[end:], true
}

// readSnapshotID returns the program ID the segment file at path names.
func readSnapshotID(vfs FS, path string) (string, error) {
	data, err := vfs.ReadFile(path)
	if err != nil {
		return "", err
	}
	return snapshotID(data, path)
}

// snapshotID returns the program ID a segment names. In version 2 it is the
// body's first field, taken once the magic and the CRC check out, with no
// JSON parsed; a version 1 segment is decoded whole.
func snapshotID(data []byte, where string) (string, error) {
	v2, body, err := openSnapshot(data, where)
	if err != nil {
		return "", err
	}
	if !v2 {
		snap, err := decodeSnapshot(data, where)
		if err != nil {
			return "", err
		}
		return snap.ProgramID, nil
	}
	id, _, ok := splitField(body)
	if !ok {
		return "", fmt.Errorf("%w: bad snapshot header in %s", ErrCorrupt, where)
	}
	return string(id), nil
}

// writeSnapshotFile persists a snapshot atomically: temp file, fsync,
// rename.
func writeSnapshotFile(vfs FS, path string, snap *ProgramSnapshot) error {
	buf, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(vfs, path, buf); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	return nil
}

// writeFileAtomic lands data at path via the temp-file + fsync + rename
// dance, so a crash at any point leaves either the old file or the new one —
// never a torn mix. Snapshots, tether markers, and the archive tier's
// local object store all rotate through it.
func writeFileAtomic(vfs FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := vfs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("write %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = vfs.Remove(tmp)
		return fmt.Errorf("write %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = vfs.Remove(tmp)
		return fmt.Errorf("sync %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		_ = vfs.Remove(tmp)
		return fmt.Errorf("close %s: %w", filepath.Base(path), err)
	}
	if err := vfs.Rename(tmp, path); err != nil {
		_ = vfs.Remove(tmp)
		return fmt.Errorf("install %s: %w", filepath.Base(path), err)
	}
	return nil
}

// WriteFileAtomic is writeFileAtomic for packages layered over the journal
// (the archive tier's local-dir object store): write-temp, fsync, rename.
func WriteFileAtomic(vfs FS, path string, data []byte) error {
	if vfs == nil {
		vfs = OSFS()
	}
	return writeFileAtomic(vfs, path, data)
}
