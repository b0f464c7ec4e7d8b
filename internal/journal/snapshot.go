package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/codec"
)

// ProgramSnapshot is one program's full durable state at a checkpoint: the
// serialized execution tree (exectree.Encode, which Decode restores
// bit-for-bit including the incremental frontier index), the versioned fix
// set, standing proofs, failure-signature aggregation, ingestion counters,
// collective known-good inputs, and the exactly-once session dedup table as
// of the checkpoint.
//
// Failure samples are columnar batches (trace.AppendBatch), the one trace encoding the wire, the journal
// and the archive carry; fixes and proofs are in their own binary codecs
// (fix.Append, proof.Append). All of
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
// TreeDelta is opaque here; exectree/delta.go owns its layout (delta
// version 2: the changed nodes in Encode's pre-order, each entry as the
// depth shared with the previous entry, the edges below it and the node's
// body).
//
// A chain segment holds a snapshot in envelope version 6 (see
// encodeSnapshot): every field in the journal's uvarint framing, fixes and
// proofs as opaque bytes, so no JSON is parsed to read one. A decoded
// snapshot's byte fields (Tree, TreeDelta, fixes, proofs, samples) alias the segment bytes it was read from, so nothing
// may write into them, nor into the bytes of a ChainExport it came from; its
// strings share one allocation. Empty lists and maps decode as nil. A
// segment of any other envelope version is refused with ErrUnknownVersion.
type ProgramSnapshot struct {
	ProgramID string
	// Tree is the exectree.Encode serialization (full snapshots only).
	Tree []byte
	// TreeDelta is the exectree.EncodeDelta serialization (delta segments
	// only): the nodes changed since the previous checkpoint.
	TreeDelta []byte
	// Fixes are fix encodings (fix.Append) in ID order.
	Fixes [][]byte
	Epoch int
	// Proofs are proof encodings (proof.Append) (standing and superseded; readers
	// filter by epoch).
	Proofs [][]byte
	// Failures is the per-signature aggregation state.
	Failures []FailureState

	Ingested      int64
	Reconstructed int64

	// KnownGood are raw inputs observed to succeed (present only when pods
	// shipped at PrivacyRaw).
	KnownGood [][]int64

	// Sessions is the exactly-once dedup table (session -> contiguous
	// applied-sequence base) as of this checkpoint; SessionsAhead carries
	// any out-of-order applied marks above a session's base. Recovery
	// union-merges both from every program snapshot and replayed batch op.
	Sessions      map[string]uint64
	SessionsAhead map[string][]uint64
}

// FailureState is the serialized form of one failure signature's fleet-wide
// aggregation — the codec for hive.FailureRecord plus the bookkeeping the
// exported snapshot type omits (distinct reporting pods).
type FailureState struct {
	Signature string
	Outcome   uint8
	Count     int64
	// Pods lists the distinct reporting pod IDs.
	Pods []string
	// Sample is one representative trace as a one-trace columnar batch.
	Sample      []byte
	Fixed       bool
	InRepairLab bool
}

// The flag bits of a FailureState in a segment; any other bit is corrupt.
const (
	failureFixed = 1 << iota
	failureInRepairLab
)

// encodeSnapshot serializes a snapshot into the CRC-framed byte form of a
// chain segment: what writeSnapshotFile persists and a ChainExport carries.
// The envelope (version 6) is
//
//	"SBSNAP6\n" | uvarint body length | body | CRC32 (IEEE, little endian) of body
//
//	body  = field program ID | field Tree | field TreeDelta | state
//	state = varint Ingested, Reconstructed, Epoch
//	      | list of field (Fixes) | list of field (Proofs)
//	      | list of failure
//	      | list of (list of varint) (KnownGood)
//	      | list of (field session, uvarint base) (Sessions)
//	      | list of (field session, list of uvarint) (SessionsAhead)
//	failure = field signature | byte outcome | varint count
//	      | list of field (pods) | field sample | byte flags
//
// where a field is a uvarint length and that many bytes, and a list a
// uvarint count and that many items. The two maps are written in
// ascending key order, so a segment's bytes are a function of the state, and
// a reader takes the tree bytes as they lie. Version 4 replaced version 3's
// JSON state with this one; version 5 has the same layout, with fixes and
// proofs in their binary codecs where version 4 held their JSON; version 6
// drops version 5's Narrowed counter and coordinated-sampling families, and
// its samples are trace batches of version 2.
func encodeSnapshot(snap *ProgramSnapshot) []byte {
	state := appendState(nil, snap)
	n := uvarintLen(len(snap.ProgramID)) + len(snap.ProgramID) +
		uvarintLen(len(snap.Tree)) + len(snap.Tree) +
		uvarintLen(len(snap.TreeDelta)) + len(snap.TreeDelta) + len(state)
	buf := make([]byte, 0, len(snapMagic)+uvarintLen(n)+n+4)
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, uint64(n))
	start := len(buf)
	buf = codec.AppendField(buf, snap.ProgramID)
	buf = codec.AppendField(buf, snap.Tree)
	buf = codec.AppendField(buf, snap.TreeDelta)
	buf = append(buf, state...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// appendState appends every field after the header in the layout
// encodeSnapshot gives.
func appendState(buf []byte, snap *ProgramSnapshot) []byte {
	for _, v := range [...]int64{snap.Ingested, snap.Reconstructed, int64(snap.Epoch)} {
		buf = binary.AppendVarint(buf, v)
	}
	for _, docs := range [...][][]byte{snap.Fixes, snap.Proofs} {
		buf = binary.AppendUvarint(buf, uint64(len(docs)))
		for _, doc := range docs {
			buf = codec.AppendField(buf, doc)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(snap.Failures)))
	for i := range snap.Failures {
		fs := &snap.Failures[i]
		buf = codec.AppendField(buf, fs.Signature)
		buf = append(buf, fs.Outcome)
		buf = binary.AppendVarint(buf, fs.Count)
		buf = binary.AppendUvarint(buf, uint64(len(fs.Pods)))
		for _, pod := range fs.Pods {
			buf = codec.AppendField(buf, pod)
		}
		buf = codec.AppendField(buf, fs.Sample)
		var flags byte
		if fs.Fixed {
			flags |= failureFixed
		}
		if fs.InRepairLab {
			flags |= failureInRepairLab
		}
		buf = append(buf, flags)
	}
	buf = binary.AppendUvarint(buf, uint64(len(snap.KnownGood)))
	for _, input := range snap.KnownGood {
		buf = binary.AppendUvarint(buf, uint64(len(input)))
		for _, v := range input {
			buf = binary.AppendVarint(buf, v)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(snap.Sessions)))
	for _, id := range sortedKeys(snap.Sessions) {
		buf = codec.AppendField(buf, id)
		buf = binary.AppendUvarint(buf, snap.Sessions[id])
	}
	buf = binary.AppendUvarint(buf, uint64(len(snap.SessionsAhead)))
	for _, id := range sortedKeys(snap.SessionsAhead) {
		buf = codec.AppendField(buf, id)
		marks := snap.SessionsAhead[id]
		buf = binary.AppendUvarint(buf, uint64(len(marks)))
		for _, seq := range marks {
			buf = binary.AppendUvarint(buf, seq)
		}
	}
	return buf
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
// the source for error messages. The byte fields alias data.
func decodeSnapshot(data []byte, where string) (*ProgramSnapshot, error) {
	body, err := openSnapshot(data, where)
	if err != nil {
		return nil, err
	}
	id, body, ok := splitField(body)
	tree, body, ok2 := splitField(body)
	delta, state, ok3 := splitField(body)
	if !ok || !ok2 || !ok3 {
		return nil, fmt.Errorf("%w: bad snapshot header in %s", ErrCorrupt, where)
	}
	snap := &ProgramSnapshot{ProgramID: string(id), Tree: tree, TreeDelta: delta}
	if err := decodeState(state, snap); err != nil {
		return nil, fmt.Errorf("%s: %w", where, err)
	}
	return snap, nil
}

// decodeState parses a segment's state into snap. Every list is sized only
// once its count fits in the bytes left (an item takes at least one byte,
// most more), map keys must ascend strictly, and nothing may follow the last
// field: whatever the bytes, the decode allocates at most a small multiple
// of them and refuses what encodeSnapshot cannot have written.
func decodeState(state []byte, snap *ProgramSnapshot) error {
	d := codec.NewDecoder(state, ErrCorrupt, "snapshot state")
	d.ShareStrings()
	snap.Ingested, snap.Reconstructed = d.Varint(), d.Varint()
	snap.Epoch = int(d.Varint())
	snap.Fixes = views(&d)
	snap.Proofs = views(&d)
	// A failure takes at least six bytes: four empty fields or counts, the
	// outcome and the flags.
	if n := d.Count(6); n > 0 {
		snap.Failures = make([]FailureState, n)
		for i := range snap.Failures {
			fs := &snap.Failures[i]
			fs.Signature = d.String()
			fs.Outcome = d.Byte()
			fs.Count = d.Varint()
			if pods := d.Count(1); pods > 0 {
				fs.Pods = make([]string, pods)
				for j := range fs.Pods {
					fs.Pods[j] = d.String()
				}
			}
			fs.Sample = d.View()
			flags := d.Byte()
			if d.Err() == nil && flags&^(failureFixed|failureInRepairLab) != 0 {
				return fmt.Errorf("%w: failure %q has flags %#x", ErrCorrupt, fs.Signature, flags)
			}
			fs.Fixed, fs.InRepairLab = flags&failureFixed != 0, flags&failureInRepairLab != 0
		}
	}
	if n := d.Count(1); n > 0 {
		snap.KnownGood = make([][]int64, n)
		for i := range snap.KnownGood {
			if m := d.Count(1); m > 0 {
				input := make([]int64, m)
				for j := range input {
					input[j] = d.Varint()
				}
				snap.KnownGood[i] = input
			}
		}
	}
	if n := d.Count(2); n > 0 {
		snap.Sessions = make(map[string]uint64, n)
		for i, prev := 0, ""; i < n && d.Err() == nil; i++ {
			id := mapKey(&d, i, prev)
			snap.Sessions[id] = d.Uvarint()
			prev = id
		}
	}
	if n := d.Count(2); n > 0 {
		snap.SessionsAhead = make(map[string][]uint64, n)
		// Every session's marks share one array: the section is the last,
		// and a mark takes at least one of its bytes.
		slab := make([]uint64, 0, d.Left())
		for i, prev := 0, ""; i < n && d.Err() == nil; i++ {
			id := mapKey(&d, i, prev)
			var marks []uint64
			if m := d.Count(1); m > 0 {
				for j := 0; j < m; j++ {
					slab = append(slab, d.Uvarint())
				}
				marks = slab[len(slab)-m : len(slab) : len(slab)]
			}
			snap.SessionsAhead[id] = marks
			prev = id
		}
	}
	return d.Finish()
}

// views reads a list of length-prefixed byte fields, each in place.
func views(d *codec.Decoder) [][]byte {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = d.View()
	}
	return out
}

// key reads the i-th key of a map written in ascending key order, refusing
// one that does not follow prev.
func mapKey(d *codec.Decoder, i int, prev string) string {
	k := d.String()
	if i > 0 && k <= prev {
		d.Fail("key %q does not follow %q", k, prev)
	}
	return k
}

// openSnapshot checks a segment's magic and CRC frame and returns its body.
func openSnapshot(data []byte, where string) ([]byte, error) {
	if err := checkMagic(data, snapMagic, where); err != nil {
		return nil, err
	}
	body, rest, ok := splitField(data[len(snapMagic):])
	if !ok || len(rest) < 4 {
		return nil, fmt.Errorf("%w: truncated snapshot %s", ErrCorrupt, where)
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rest) {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch in %s", ErrCorrupt, where)
	}
	return body, nil
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

// snapshotID returns the program ID a segment names: the body's first
// field, taken once the magic and the CRC check out, with no state parsed.
func snapshotID(data []byte, where string) (string, error) {
	body, err := openSnapshot(data, where)
	if err != nil {
		return "", err
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
	if err := writeFileAtomic(vfs, path, encodeSnapshot(snap)); err != nil {
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
