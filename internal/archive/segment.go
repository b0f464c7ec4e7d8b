// Package archive is the hive's cold tier (PR 10): a background archiver
// bundles each program's compacted snapshot-chain generations and sealed
// journal bytes into self-describing CRC-framed archive segments, tiers
// them through a pluggable ObjectStore, prunes local generations against a
// disk budget (a journal tether marker stands in for the pruned files), and
// reads a program back purely from the archive as the journal's own chain
// (Load returns a journal.ChainExport, which a hive imports as it would one
// from a peer or a data directory) — cold-standby recovery after a member
// dies with its disk. No journal file is named here: chain bytes become
// files only in journal.WriteChain.
//
// Segments written concurrently by multiple replicas reconcile by
// construction: object keys embed a content hash (identical bytes collide
// onto one key) and per-program manifests order by (generation, archived
// journal length, sequence), so the newest generation wins regardless of
// which writer shipped it.
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Segment framing: every object in the archive store — full snapshots,
// delta segments, journal chunks, manifests — is wrapped in one
// self-describing CRC frame, so any object can be identified, validated,
// and attributed to its program from its bytes alone.
const (
	segMagic   = "SBARCH1\n"
	segVersion = 1
)

// Kind discriminates archive segment payloads.
type Kind uint8

const (
	// KindFull wraps a base snapshot file's bytes (journal snap codec).
	KindFull Kind = 1
	// KindDelta wraps one delta segment file's bytes.
	KindDelta Kind = 2
	// KindWALChunk wraps a record-aligned slice of a journal generation,
	// Offset bytes into the generation's framed-record region.
	KindWALChunk Kind = 3
	// KindManifest wraps a manifest JSON document.
	KindManifest Kind = 4
)

// ErrBadSegment reports an archive object that failed frame validation —
// torn, truncated, or foreign bytes. Readers skip such objects; the
// reconciled manifest never references them twice.
var ErrBadSegment = errors.New("archive: bad segment")

// Segment is one decoded archive frame.
type Segment struct {
	Kind      Kind
	ProgramID string
	// Gen is the chain generation the payload belongs to.
	Gen uint64
	// Part orders a generation's WAL chunks; zero elsewhere.
	Part uint64
	// Offset is the chunk's byte offset into the generation's record
	// region; zero elsewhere.
	Offset uint64
	// Payload is the wrapped file bytes (or manifest JSON).
	Payload []byte
}

// EncodeSegment frames a segment: magic, then a CRC32-protected region of
// version, kind, program ID, generation, part, offset, and payload.
func EncodeSegment(seg *Segment) []byte {
	buf := make([]byte, 0, len(segMagic)+2+len(seg.ProgramID)+len(seg.Payload)+5*binary.MaxVarintLen64+4)
	buf = append(buf, segMagic...)
	buf = append(buf, segVersion, byte(seg.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(seg.ProgramID)))
	buf = append(buf, seg.ProgramID...)
	buf = binary.AppendUvarint(buf, seg.Gen)
	buf = binary.AppendUvarint(buf, seg.Part)
	buf = binary.AppendUvarint(buf, seg.Offset)
	buf = binary.AppendUvarint(buf, uint64(len(seg.Payload)))
	buf = append(buf, seg.Payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf[len(segMagic):]))
	return append(buf, crc[:]...)
}

// DecodeSegment parses and validates EncodeSegment bytes. Every field is
// bounds-checked against the input before use and the CRC covers the whole
// frame, so torn, truncated, or garbage objects return ErrBadSegment —
// never a panic, never a silently wrong payload.
func DecodeSegment(data []byte) (*Segment, error) {
	if len(data) < len(segMagic)+2+4 || string(data[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSegment)
	}
	body, crcBytes := data[len(segMagic):len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSegment)
	}
	if body[0] != segVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrBadSegment, body[0])
	}
	seg := &Segment{Kind: Kind(body[1])}
	switch seg.Kind {
	case KindFull, KindDelta, KindWALChunk, KindManifest:
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadSegment, body[1])
	}
	rest := body[2:]
	idLen, n := binary.Uvarint(rest)
	if n <= 0 || idLen > uint64(len(rest)-n) {
		return nil, fmt.Errorf("%w: bad program id", ErrBadSegment)
	}
	seg.ProgramID = string(rest[n : n+int(idLen)])
	rest = rest[n+int(idLen):]
	for _, dst := range []*uint64{&seg.Gen, &seg.Part, &seg.Offset} {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated header", ErrBadSegment)
		}
		*dst = v
		rest = rest[n:]
	}
	payLen, n := binary.Uvarint(rest)
	if n <= 0 || payLen != uint64(len(rest)-n) {
		return nil, fmt.Errorf("%w: payload length mismatch", ErrBadSegment)
	}
	seg.Payload = rest[n:]
	return seg, nil
}
