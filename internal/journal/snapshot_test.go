package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
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

// TestSnapshotEnvelope: a version 4 segment decodes to the snapshot that was
// encoded, with its byte fields read in place — subslices of the segment,
// each capped at its own length — and the header names the program.
func TestSnapshotEnvelope(t *testing.T) {
	full := sampleSnapshot()
	delta := sampleSnapshot()
	delta.Tree, delta.TreeDelta = nil, []byte{2, 0, 1, 0}
	for _, want := range []*ProgramSnapshot{full, delta} {
		data := encodeSnapshot(want)
		if !bytes.HasPrefix(data, []byte("SBSNAP4\n")) {
			t.Fatalf("segment starts %q; want version 4", data[:8])
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
		fields := [][]byte{got.Tree, got.TreeDelta, got.Failures[0].Sample, got.Coordinated["fam"]}
		for _, field := range append(append(fields, got.Fixes...), got.Proofs...) {
			if field == nil {
				continue
			}
			if cap(field) != len(field) {
				t.Errorf("a byte field has capacity %d past its %d bytes", cap(field), len(field))
			}
			if start := bytes.Index(data, field); start < 0 || &data[start] != &field[0] {
				t.Error("a byte field was copied out of the segment, not read in place")
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
		if err := os.WriteFile(snapPath(dir, fileKey(id), 4), encodeSnapshot(snap), 0o644); err != nil {
			t.Fatal(err)
		}
		want[id] = snap
	}
	// prog-delta's base is unreadable: its newest delta names it.
	delta := sampleSnapshot()
	delta.ProgramID, delta.Tree, delta.TreeDelta = "prog-delta", nil, []byte{2}
	key := fileKey(delta.ProgramID)
	if err := os.WriteFile(snapPath(dir, key, 1), []byte("SBSNAP4\ntorn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(deltaPath(dir, key, 2), encodeSnapshot(delta), 0o644); err != nil {
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
// re-encodes into a segment that decodes to a snapshot with the same bytes.
func FuzzSnapshotEnvelope(f *testing.F) {
	seg := encodeSnapshot(sampleSnapshot())
	f.Add(seg)
	f.Add(append([]byte("SBSNAP9\n"), seg[len(snapMagic):]...))
	f.Add(append([]byte("SBSNAP3\n"), seg[len(snapMagic):]...))
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
	for _, state := range hostileStates() {
		f.Add(stateSegment(state))
	}
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
		re := encodeSnapshot(got)
		if !bytes.HasPrefix(re, []byte(snapMagic)) {
			t.Fatalf("re-encoded as %q", re[:8])
		}
		back, err := decodeSnapshot(re, "fuzz")
		if err != nil {
			t.Fatalf("re-encoded segment refused: %v", err)
		}
		if again := encodeSnapshot(back); !bytes.Equal(again, re) {
			t.Fatalf("re-encoded segment decodes to another snapshot:\n got %+v\nback %+v", got, back)
		}
	})
}

// sampleState is the state bytes of sampleSnapshot's segment, after the
// three header fields.
func sampleState() []byte {
	body, err := openSnapshot(encodeSnapshot(sampleSnapshot()), "sample")
	for i := 0; i < 3 && err == nil; i++ {
		var ok bool
		if _, body, ok = splitField(body); !ok {
			err = errors.New("bad header")
		}
	}
	if err != nil {
		panic("the sample segment does not open: " + err.Error())
	}
	return body
}

// stateSegment frames state as a segment of program "p" with no tree.
func stateSegment(state []byte) []byte {
	body := append([]byte{1, 'p', 0, 0}, state...)
	return frame(snapMagic, uint64(len(body)), body)
}

// hostileStates are state sections no encoder writes: list counts near 2^64
// and one past the bytes left, in each list's place; sampleState cut inside
// each of its fields; one trailing byte; keys out of order or repeated; and
// an unknown failure flag.
func hostileStates() [][]byte {
	state := sampleState()
	counters := binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(nil, 1), 2), 3), 4)
	var out [][]byte
	// An empty state but for one list, whose count is hostile. Lists come
	// after the counters in this order: fixes, proofs, failures, known-good,
	// coordinated, sessions, sessions ahead.
	for list := 0; list < 7; list++ {
		for _, count := range []uint64{1<<64 - 1, 1<<64 - 4, 1 << 62, uint64(7 - list + 1)} {
			s := append([]byte(nil), counters...)
			for i := 0; i < 7; i++ {
				if i == list {
					s = binary.AppendUvarint(s, count)
				} else {
					s = append(s, 0)
				}
			}
			out = append(out, s)
		}
	}
	for cut := 0; cut < len(state); cut++ {
		out = append(out, state[:cut])
	}
	out = append(out, append(append([]byte(nil), state...), 0))
	// Two sessions whose keys do not ascend, and two that repeat.
	for _, keys := range [][2]string{{"s2", "s1"}, {"s1", "s1"}} {
		s := append(append([]byte(nil), counters...), 0, 0, 0, 0, 0, 2)
		for _, k := range keys {
			s = binary.AppendUvarint(appendBytes(s, k), 1)
		}
		out = append(out, append(s, 0))
	}
	// A failure with a flag bit no encoder sets.
	s := append(append([]byte(nil), counters...), 0, 0, 1, 1, 'f', 2, 1, 0, 0, 0x80>>4)
	out = append(out, append(s, 0, 0, 0, 0))
	return out
}

// TestSnapshotStateRefusesHostile: every hostile state section is ErrCorrupt,
// never a panic and never an allocation sized by a count the bytes cannot
// hold.
func TestSnapshotStateRefusesHostile(t *testing.T) {
	if _, err := decodeSnapshot(stateSegment(sampleState()), "sample"); err != nil {
		t.Fatalf("the unmodified sample state is refused: %v", err)
	}
	for i, state := range hostileStates() {
		if _, err := decodeSnapshot(stateSegment(state), "hostile"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("hostile state %d (% x): decode returned %v; want ErrCorrupt", i, state, err)
		}
	}
}

// TestSnapshotStateRoundTrip: over random states — nil and empty lists and
// maps, several sessions with marks ahead, coordinated batches, negative
// counters and inputs — a segment decodes to the state it was encoded from
// (an empty list or map as nil), and equal states give equal bytes whatever
// the maps' insertion order or the lists' nil-ness.
func TestSnapshotStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for iter := 0; iter < 300; iter++ {
		snap := randomSnapshot(rng)
		data := encodeSnapshot(snap)
		got, err := decodeSnapshot(data, "round trip")
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		if want := normalized(snap); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: decoded\n got %+v\nwant %+v", iter, got, want)
		}
		if again := encodeSnapshot(got); !bytes.Equal(again, data) {
			t.Fatalf("iteration %d: the decoded state re-encodes to other bytes", iter)
		}
		if other := encodeSnapshot(rebuilt(snap)); !bytes.Equal(other, data) {
			t.Fatalf("iteration %d: an equal state built in another order encodes to other bytes", iter)
		}
	}
}

// randomSnapshot draws a state with every field in play, empty and nil
// collections among them.
func randomSnapshot(rng *rand.Rand) *ProgramSnapshot {
	str := func() string { return fmt.Sprintf("k%d", rng.Intn(1<<uint(rng.Intn(20)+1))) }
	blob := func() []byte {
		if rng.Intn(4) == 0 {
			return nil
		}
		b := make([]byte, rng.Intn(40)+1)
		rng.Read(b)
		return b
	}
	// list is nil, empty or up to n long, each a third of the time.
	list := func(n int) int {
		switch rng.Intn(3) {
		case 0:
			return -1
		case 1:
			return 0
		}
		return rng.Intn(n) + 1
	}
	snap := &ProgramSnapshot{
		ProgramID:     str(),
		Epoch:         rng.Intn(9) - 1,
		Ingested:      rng.Int63() >> uint(rng.Intn(63)),
		Reconstructed: -rng.Int63n(1000),
		Narrowed:      rng.Int63n(5),
	}
	if rng.Intn(2) == 0 {
		snap.Tree = blob()
	} else {
		snap.TreeDelta = blob()
	}
	if n := list(4); n >= 0 {
		snap.Fixes = make([][]byte, n)
		for i := range snap.Fixes {
			snap.Fixes[i] = blob()
		}
	}
	if n := list(3); n >= 0 {
		snap.Proofs = make([][]byte, n)
		for i := range snap.Proofs {
			snap.Proofs[i] = blob()
		}
	}
	if n := list(5); n >= 0 {
		snap.Failures = make([]FailureState, n)
		for i := range snap.Failures {
			fs := FailureState{Signature: str(), Outcome: uint8(rng.Intn(256)), Count: rng.Int63n(1 << 40),
				Sample: blob(), Fixed: rng.Intn(2) == 0, InRepairLab: rng.Intn(2) == 0}
			if m := list(4); m >= 0 {
				fs.Pods = make([]string, m)
				for j := range fs.Pods {
					fs.Pods[j] = str()
				}
			}
			snap.Failures[i] = fs
		}
	}
	if n := list(4); n >= 0 {
		snap.KnownGood = make([][]int64, n)
		for i := range snap.KnownGood {
			if m := list(5); m >= 0 {
				snap.KnownGood[i] = make([]int64, m)
				for j := range snap.KnownGood[i] {
					snap.KnownGood[i][j] = rng.Int63n(1<<20) - 1<<19
				}
			}
		}
	}
	if n := list(4); n >= 0 {
		snap.Coordinated = make(map[string][]byte, n)
		for i := 0; i < n; i++ {
			snap.Coordinated[str()] = blob()
		}
	}
	if n := list(64); n >= 0 {
		snap.Sessions = make(map[string]uint64, n)
		for i := 0; i < n; i++ {
			snap.Sessions[str()] = rng.Uint64() >> uint(rng.Intn(64))
		}
	}
	if n := list(8); n >= 0 {
		snap.SessionsAhead = make(map[string][]uint64, n)
		for i := 0; i < n; i++ {
			var marks []uint64
			if m := list(6); m >= 0 {
				marks = make([]uint64, m)
				for j := range marks {
					marks[j] = uint64(rng.Intn(1 << 30))
				}
			}
			snap.SessionsAhead[str()] = marks
		}
	}
	return snap
}

// normalized is snap as a decode returns it: every empty list, map and byte
// field nil.
func normalized(snap *ProgramSnapshot) *ProgramSnapshot {
	b := func(v []byte) []byte {
		if len(v) == 0 {
			return nil
		}
		return v
	}
	out := *snap
	out.Tree, out.TreeDelta = b(snap.Tree), b(snap.TreeDelta)
	out.Fixes, out.Proofs, out.Failures, out.KnownGood = nil, nil, nil, nil
	out.Coordinated, out.Sessions, out.SessionsAhead = nil, nil, nil
	for _, f := range snap.Fixes {
		out.Fixes = append(out.Fixes, b(f))
	}
	for _, p := range snap.Proofs {
		out.Proofs = append(out.Proofs, b(p))
	}
	for _, fs := range snap.Failures {
		fs.Sample = b(fs.Sample)
		if len(fs.Pods) == 0 {
			fs.Pods = nil
		}
		out.Failures = append(out.Failures, fs)
	}
	for _, g := range snap.KnownGood {
		if len(g) == 0 {
			g = nil
		}
		out.KnownGood = append(out.KnownGood, g)
	}
	for k, v := range snap.Coordinated {
		if out.Coordinated == nil {
			out.Coordinated = map[string][]byte{}
		}
		out.Coordinated[k] = b(v)
	}
	if len(snap.Sessions) > 0 {
		out.Sessions = snap.Sessions
	}
	for k, v := range snap.SessionsAhead {
		if out.SessionsAhead == nil {
			out.SessionsAhead = map[string][]uint64{}
		}
		if len(v) == 0 {
			v = nil
		}
		out.SessionsAhead[k] = v
	}
	return &out
}

// rebuilt is an equal state built another way: every map filled in
// descending key order, and the fixes, failures, known-good inputs and marks
// ahead switched between nil and empty where they are either.
func rebuilt(snap *ProgramSnapshot) *ProgramSnapshot {
	out := *snap
	if snap.Fixes == nil {
		out.Fixes = [][]byte{}
	}
	if len(snap.Failures) == 0 {
		out.Failures = []FailureState{}
	}
	if len(snap.KnownGood) == 0 {
		out.KnownGood = nil
	}
	out.Coordinated = map[string][]byte{}
	keys := sortedKeys(snap.Coordinated)
	for i := len(keys) - 1; i >= 0; i-- {
		out.Coordinated[keys[i]] = snap.Coordinated[keys[i]]
	}
	out.Sessions = map[string]uint64{}
	keys = sortedKeys(snap.Sessions)
	for i := len(keys) - 1; i >= 0; i-- {
		out.Sessions[keys[i]] = snap.Sessions[keys[i]]
	}
	if len(snap.SessionsAhead) == 0 {
		out.SessionsAhead = nil
	}
	return &out
}
