package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// dirBytes reads every file in dir, by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// assertUntouched fails unless dir holds exactly the files and bytes of
// before.
func assertUntouched(t *testing.T, dir string, before map[string][]byte) {
	t.Helper()
	if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("a refusal changed the directory: %d files before, %d after", len(before), len(after))
	}
}

// assertRefused fails unless err is ErrUnknownVersion, not ErrCorrupt, and
// names file.
func assertRefused(t *testing.T, what string, err error, file string) {
	t.Helper()
	if !errors.Is(err, ErrUnknownVersion) || errors.Is(err, ErrCorrupt) {
		t.Errorf("%s returned %v; want ErrUnknownVersion, not ErrCorrupt", what, err)
	} else if file != "" && !strings.Contains(err.Error(), file) {
		t.Errorf("%s returned %q, which does not name %s", what, err, file)
	}
}

// TestOpenRefusesUnknownSegmentVersion: a segment of an envelope version this
// build does not read — a future one, or version 5, 4, 3, 2 or 1, which
// earlier builds wrote — under a key with no journal at the current generation makes Open
// fail with ErrUnknownVersion, naming the file, and leaves every byte where
// it was. Reading it as corrupt quarantined the key and deleted the file.
func TestOpenRefusesUnknownSegmentVersion(t *testing.T) {
	seg := encodeSnapshot(sampleSnapshot())
	for _, magic := range []string{"SBSNAP9\n", "SBSNAP5\n", "SBSNAP4\n", "SBSNAP3\n", "SBSNAP2\n", "SBSNAP1\n"} {
		dir := t.TempDir()
		name := filepath.Base(snapPath(dir, fileKey("prog-envelope"), 3))
		data := append([]byte(magic), seg[len(snapMagic):]...)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)
		s, err := Open(dir, Options{})
		if err == nil {
			s.Close()
		}
		assertRefused(t, "Open over "+strings.TrimSpace(magic), err, name)
		assertUntouched(t, dir, before)
	}
}

// TestUnknownWALVersionRefused: a journal whose header names another journal
// version is refused by Open, by Replay, by openWAL (the first append) and
// by ExportChain, and no byte of it moves. Each used to read it as a torn
// header: Open quarantined the key, Replay and openWAL cut the file to
// nothing, and ExportChain shipped its records as an empty region.
func TestUnknownWALVersionRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := s.Append("prog-A", batchOp("s", seq, "acked")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := walFileIn(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "SBWAL9\n")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	name := filepath.Base(path)
	before := dirBytes(t, dir)

	if s, err := Open(dir, Options{}); err == nil {
		s.Close()
		t.Error("Open succeeded over a journal of another version")
	} else {
		assertRefused(t, "Open", err, name)
	}
	if f, _, err := openWAL(OSFS(), path, "prog-A"); err == nil {
		f.Close()
		t.Error("openWAL opened a journal of another version for append")
	} else {
		assertRefused(t, "openWAL", err, name)
	}
	assertUntouched(t, dir, before)

	// A store that indexed the directory before the header changed under it
	// refuses the journal too.
	copy(data, walMagic)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	copy(data, "SBWAL9\n")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := s.ExportChain("prog-A"); err == nil {
		t.Errorf("ExportChain exported %d journal bytes of a journal of another version", len(c.WAL))
	} else {
		assertRefused(t, "ExportChain", err, name)
	}
	_, err = s.Replay("prog-A", func(Receipt) error { return nil })
	assertRefused(t, "Replay", err, name)
	assertUntouched(t, dir, before)
}

// TestReplayRefusesUnknownOp: a CRC-valid record of an op kind or op version
// this build does not read (a future version, or version 2 or 1, which
// earlier builds wrote), between two acknowledged records, fails Replay
// and ChainExport.Replay with ErrUnknownVersion and leaves the journal as it
// was. A torn write never leaves a CRC-valid record, so this is another
// build's record, and reading it as a torn tail truncated it and every
// acknowledged record after it.
func TestReplayRefusesUnknownOp(t *testing.T) {
	for _, payload := range [][]byte{{opVersion, 99}, {opVersion, 1, 0, 0, 0}, {9, byte(OpBatchColumnar), 0, 0, 0}, {2, byte(OpBatchColumnar), 0, 0, 0}, {1, byte(OpSynthesis), 0, 0}} {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append("prog-A", batchOp("s", 1, "first")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		path := walFileIn(t, dir)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(appendRecord(nil, payload)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(appendRecord(nil, appendOp(nil, batchOp("s", 2, "last")))); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)

		s, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		applied := 0
		n, err := s.Replay("prog-A", func(Receipt) error { applied++; return nil })
		assertRefused(t, "Replay", err, "")
		if n != 1 || applied != 1 {
			t.Errorf("Replay passed %d records and applied %d; want the one before the unknown op", n, applied)
		}
		if err := s.Append("prog-A", batchOp("s", 3, "after")); err == nil {
			t.Error("an append went ahead over a journal that did not replay")
		}
		c, err := s.ExportChain("prog-A")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Replay("prog-A", func(Receipt) error { return nil }); !errors.Is(err, ErrUnknownVersion) {
			t.Errorf("ChainExport.Replay returned %v; want ErrUnknownVersion", err)
		}
		s.Close()
		assertUntouched(t, dir, before)
	}
}

// TestReplayRefusesUndecodableRecord: a CRC-valid record of a known op kind
// whose payload does not decode, between two acknowledged records, fails
// Replay with ErrCorrupt naming the file and the record, after applying the
// record before it, and leaves the journal byte-identical; ChainExport.Replay
// refuses it too. The payloads: a batch record whose session field claims
// nine bytes that are not there, one whose batch length is 2^63-1 (a length
// that wrapped the decoder's bounds check and panicked), a certificate
// claiming 2^64-1 prefix edges, and a whole batch record with one byte after
// it. Replay once read such a record as a torn tail and truncated it and
// every acknowledged record after it.
func TestReplayRefusesUndecodableRecord(t *testing.T) {
	for _, payload := range [][]byte{
		{opVersion, byte(OpBatchColumnar), 9, 's'},
		binary.AppendUvarint([]byte{opVersion, byte(OpBatchColumnar), 0, 0}, 1<<63-1),
		binary.AppendUvarint([]byte{opVersion, byte(OpCert)}, 1<<64-1),
		append(appendOp(nil, batchOp("s", 9, "x")), 0),
	} {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append("prog-A", batchOp("s", 1, "first")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		path := walFileIn(t, dir)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(appendRecord(nil, payload)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(appendRecord(nil, appendOp(nil, batchOp("s", 2, "last")))); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)

		s, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var applied []string
		n, err := s.Replay("prog-A", func(r Receipt) error {
			applied = append(applied, string(r.Op().Raw))
			return nil
		})
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrUnknownVersion) {
			t.Errorf("% x: Replay returned %v; want ErrCorrupt", payload, err)
		} else if name := filepath.Base(path); !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "record 1") {
			t.Errorf("% x: Replay returned %q, which does not name %s and record 1", payload, err, name)
		}
		if n != 1 || !reflect.DeepEqual(applied, []string{"first"}) {
			t.Errorf("% x: Replay passed %d records and applied %q; want the one before the undecodable record", payload, n, applied)
		}
		assertUntouched(t, dir, before)
		c, err := s.ExportChain("prog-A")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Replay("prog-A", func(Receipt) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Errorf("% x: ChainExport.Replay returned %v; want ErrCorrupt", payload, err)
		}
		s.Close()
		assertUntouched(t, dir, before)
	}
}

// TestTornWALHeaderStillReset: a header cut short inside the magic is a
// creation write that never completed, not another version: Replay and the
// first append still reset it, and the journal takes records again.
func TestTornWALHeaderStillReset(t *testing.T) {
	for _, torn := range []string{"SBWAL", "SBWAL1", "SB"} {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		path := walPath(dir, fileKey("prog-A"), 0)
		if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		if n, err := s.Replay("prog-A", func(Receipt) error { return nil }); err != nil || n != 0 {
			t.Fatalf("%q: Replay = %d, %v; want the torn header reset", torn, n, err)
		}
		if data, err := os.ReadFile(path); err != nil || len(data) != 0 {
			t.Fatalf("%q: after Replay the journal holds %q (%v); want it empty", torn, data, err)
		}
		if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.Append("prog-A", batchOp("s", 1, "fresh")); err != nil {
			t.Fatalf("%q: append over a torn header: %v", torn, err)
		}
		data, err := os.ReadFile(path)
		if err != nil || !bytes.HasPrefix(data, walHeader("prog-A")) {
			t.Fatalf("%q: the journal starts %q (%v); want a fresh header", torn, data, err)
		}
		s.Close()
	}
}
