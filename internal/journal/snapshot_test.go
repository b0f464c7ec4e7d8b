package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"testing"
)

// sampleSnapshot fills every field a segment carries.
func sampleSnapshot() *ProgramSnapshot {
	return &ProgramSnapshot{
		ProgramID: "prog-envelope",
		Tree:      []byte{1, 13, 'p', 'r', 'o', 'g', 0, 0, 2, 0x80, 0x01, 7},
		Fixes:     [][]byte{[]byte(`{"id":1}`), []byte(`{"id":2}`)},
		Epoch:     3,
		Proofs:    [][]byte{[]byte(`{"property":"no-crash"}`)},
		Failures: []FailureState{{Signature: "sig-a", Outcome: 2, Count: 5, Pods: []string{"pod-1", "pod-2"},
			Sample: []byte{9, 8, 7}, Fixed: true}},
		Ingested:      100,
		Reconstructed: 40,
		Narrowed:      2,
		KnownGood:     [][]int64{{1, 2}, {300}},
		Coordinated:   map[string][]byte{"fam": {1, 2, 3}},
		Sessions:      map[string]uint64{"s1": 7, "s2": 1 << 40},
		SessionsAhead: map[string][]uint64{"s1": {9, 11}},
	}
}

// frame wraps body in a CRC frame after magic, declaring length n.
func frame(magic string, n uint64, body []byte) []byte {
	buf := binary.AppendUvarint([]byte(magic), n)
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
}

// TestSnapshotEnvelope: a version 3 segment decodes to the snapshot that was
// encoded, with Tree and TreeDelta read in place — subslices of the segment,
// each capped at its own length — and the header names the program.
func TestSnapshotEnvelope(t *testing.T) {
	full := sampleSnapshot()
	delta := sampleSnapshot()
	delta.Tree, delta.TreeDelta = nil, []byte{2, 0, 1, 0}
	for _, want := range []*ProgramSnapshot{full, delta} {
		data, err := encodeSnapshot(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("SBSNAP3\n")) {
			t.Fatalf("segment starts %q; want version 3", data[:8])
		}
		got, err := decodeSnapshot(data, "test")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded\n got %+v\nwant %+v", got, want)
		}
		if id, err := snapshotID(data, "test"); err != nil || id != want.ProgramID {
			t.Fatalf("segment names program %q (%v); want %q", id, err, want.ProgramID)
		}
		for _, field := range [][]byte{got.Tree, got.TreeDelta} {
			if field == nil {
				continue
			}
			if cap(field) != len(field) {
				t.Errorf("a tree field has capacity %d past its %d bytes", cap(field), len(field))
			}
			if start := bytes.Index(data, field); start < 0 || &data[start] != &field[0] {
				t.Error("a tree field was copied out of the segment, not read in place")
			}
		}
	}
}

// TestSnapshotLengthOverflowIsCorrupt: a length prefix near 2^64 — one
// flipped bit in a segment's header — is ErrCorrupt, from the frame and from
// each field of the body, whether the segment is decoded, loaded
// from a directory after Open's probe, or loaded from a chain in hand. Such a prefix once
// wrapped the bounds check and panicked with a slice bound out of range.
func TestSnapshotLengthOverflowIsCorrupt(t *testing.T) {
	tail := bytes.Repeat([]byte{'x'}, 16)
	var bad [][]byte
	for _, n := range []uint64{1<<64 - 1, 1<<64 - 4, 1<<64 - 2, 1 << 63} {
		bad = append(bad, append(binary.AppendUvarint([]byte(snapMagic), n), tail...))
	}
	for _, n := range []uint64{1<<64 - 1, 1<<64 - 4} {
		field := append(binary.AppendUvarint(nil, n), tail...)
		for _, before := range [][]byte{nil, {1, 'p'}, {1, 'p', 0}} { // the ID's, Tree's, TreeDelta's length
			body := append(append([]byte(nil), before...), field...)
			bad = append(bad, frame(snapMagic, uint64(len(body)), body))
		}
	}
	// A TreeDelta declared past the end of the body.
	bad = append(bad, frame(snapMagic, 5, []byte{1, 'p', 0, 9, '{'}))
	for i, data := range bad {
		if _, err := decodeSnapshot(data, "test"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("segment %d: decode returned %v; want ErrCorrupt", i, err)
		}
		if _, _, err := (&ChainExport{ProgramID: "p", HasBase: true, BaseGen: 1, Base: data}).LoadChain("p"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("segment %d: chain load returned %v; want ErrCorrupt", i, err)
		}
		// The base alone, no journal. Open's probe quarantines the key when
		// the segment names no program; when the header's ID is intact and
		// a later field is not, it names the program, and loading the chain
		// is ErrCorrupt.
		dir := t.TempDir()
		if err := os.WriteFile(snapPath(dir, fileKey("p"), 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("segment %d: open: %v", i, err)
		}
		if progs := s.Programs(); len(progs) != 0 {
			if _, _, err := s.LoadChain("p"); !errors.Is(err, ErrCorrupt) {
				t.Errorf("segment %d: open named %v, and its chain loaded with %v; want ErrCorrupt", i, progs, err)
			}
		}
		s.Close()
	}
}

// TestOpenNamesProgramFromSegment: with no journal at the current
// generation, Open takes a program's identity from its chain — the base, or
// else the newest delta — and the chain loads.
func TestOpenNamesProgramFromSegment(t *testing.T) {
	dir := t.TempDir()
	want := map[string]*ProgramSnapshot{}
	for _, id := range []string{"prog-a", "prog-b"} {
		snap := sampleSnapshot()
		snap.ProgramID = id
		data, err := encodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapPath(dir, fileKey(id), 4), data, 0o644); err != nil {
			t.Fatal(err)
		}
		want[id] = snap
	}
	// prog-delta's base is unreadable: its newest delta names it.
	delta := sampleSnapshot()
	delta.ProgramID, delta.Tree, delta.TreeDelta = "prog-delta", nil, []byte{2}
	data, err := encodeSnapshot(delta)
	if err != nil {
		t.Fatal(err)
	}
	key := fileKey(delta.ProgramID)
	if err := os.WriteFile(snapPath(dir, key, 1), []byte("SBSNAP3\ntorn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(deltaPath(dir, key, 2), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Programs(); !reflect.DeepEqual(got, []string{"prog-a", "prog-b", "prog-delta"}) {
		t.Fatalf("open named %v", got)
	}
	for id, snap := range want {
		base, deltas, err := s.LoadChain(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(deltas) != 0 || !reflect.DeepEqual(base, snap) {
			t.Fatalf("%s: loaded %+v and %d deltas; want %+v", id, base, len(deltas), snap)
		}
	}
}

// FuzzSnapshotEnvelope: whatever the bytes, decoding a segment never panics
// and refuses with ErrCorrupt, or with ErrUnknownVersion (and never both)
// exactly when the bytes open with the SBSNAP family at another version. A
// segment it accepts names the same program through Open's probe, and
// re-encodes into a segment that decodes to an equal snapshot.
func FuzzSnapshotEnvelope(f *testing.F) {
	snap := sampleSnapshot()
	seg, err := encodeSnapshot(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(append([]byte("SBSNAP9\n"), seg[len(snapMagic):]...))
	f.Add(seg[:len(seg)/2])
	f.Add(seg[:len(seg)-1])
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Add(append(binary.AppendUvarint([]byte("SBSNAP2\n"), 1<<64-4), 1, 2, 3, 4, 5, 6))
	f.Add(append(binary.AppendUvarint([]byte(snapMagic), 1<<64-1), 1, 2, 3, 4, 5, 6))
	field := binary.AppendUvarint([]byte{1, 'p'}, 1<<64-4)
	f.Add(frame(snapMagic, uint64(len(field)), field))
	f.Add(frame(snapMagic, 5, []byte{1, 'p', 0, 0, '{'}))
	f.Add(frame(snapMagic, 6, []byte{0, 0, 0, '{', '}', ' '}))
	f.Add([]byte("SBSNAP1\n"))
	f.Add([]byte("SBSNAP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeSnapshot(data, "fuzz")
		if err != nil {
			family := "SBSNAP"
			foreign := len(data) > len(family) && string(data[:len(family)]) == family && data[len(family)] != snapMagic[len(family)]
			if errors.Is(err, ErrCorrupt) == errors.Is(err, ErrUnknownVersion) || foreign != errors.Is(err, ErrUnknownVersion) {
				t.Fatalf("refused with %v; want ErrUnknownVersion exactly for another SBSNAP version, ErrCorrupt otherwise", err)
			}
			return
		}
		if id, err := snapshotID(data, "fuzz"); err != nil || id != got.ProgramID {
			t.Fatalf("the probe names %q (%v); the decode %q", id, err, got.ProgramID)
		}
		re, err := encodeSnapshot(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(re, []byte(snapMagic)) {
			t.Fatalf("re-encoded as %q", re[:8])
		}
		back, err := decodeSnapshot(re, "fuzz")
		if err != nil {
			t.Fatalf("re-encoded segment refused: %v", err)
		}
		if !sameSnapshot(got, back) {
			t.Fatalf("re-encoded segment decodes to another snapshot:\n got %+v\nback %+v", got, back)
		}
	})
}

// sameSnapshot compares two snapshots as a segment can tell them apart: the
// header fields byte for byte, the rest by their JSON, in which a nil and
// an empty slice or map are both absent.
func sameSnapshot(a, b *ProgramSnapshot) bool {
	if a.ProgramID != b.ProgramID || !bytes.Equal(a.Tree, b.Tree) || !bytes.Equal(a.TreeDelta, b.TreeDelta) {
		return false
	}
	ja, erra := json.Marshal(a)
	jb, errb := json.Marshal(b)
	return erra == nil && errb == nil && bytes.Equal(ja, jb)
}
