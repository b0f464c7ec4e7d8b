package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
)

// FuzzJournalTornTail is the crash-consistency fuzz: a journal whose tail
// was torn at an arbitrary byte offset — optionally with garbage appended
// after the cut, the shape a crashed write or a partially reused disk block
// leaves behind — must (a) never panic, nor error out of Replay but over the
// record named below, (b) replay
// every record wholly on disk before the cut, in order — an acknowledged
// record ahead of the damage is never lost — and (c) leave a journal that
// accepts appends and round-trips them on the next recovery. Garbage that
// parses as a CRC-valid record is no torn tail, since a torn write cannot
// leave one: if it does not decode, Replay refuses it — ErrUnknownVersion for
// an op version or kind this build does not read, ErrCorrupt otherwise — and
// leaves the file as it found it.
func FuzzJournalTornTail(f *testing.F) {
	f.Add(uint16(3), uint16(0), []byte{})
	f.Add(uint16(8), uint16(17), []byte{0x00, 0xff, 0x7f})
	f.Add(uint16(1), uint16(1), []byte("SBWAL1\n"))
	f.Add(uint16(40), uint16(512), bytes.Repeat([]byte{0xaa}, 64))
	f.Add(uint16(2), uint16(0), appendRecord(nil, []byte{9, byte(OpBatchColumnar), 0, 0, 0}))
	f.Add(uint16(2), uint16(5), appendRecord(nil, []byte{opVersion, 99}))
	f.Add(uint16(2), uint16(0), appendRecord(nil, []byte{opVersion, byte(OpBatchColumnar), 9, 's'}))
	f.Add(uint16(3), uint16(0), appendRecord(nil, append(appendOp(nil, batchOp("s", 9, "x")), 0)))
	f.Fuzz(func(t *testing.T, numOps uint16, cutBack uint16, garbage []byte) {
		ops := int(numOps%64) + 1
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Record where each op's frame ends so "fully on disk before the
		// cut" is exact.
		ends := make([]int64, 0, ops)
		for i := 0; i < ops; i++ {
			if err := s.Append("prog-A", batchOp("s", uint64(i+1), fmt.Sprintf("rec-%d", i))); err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(walFileIn(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			ends = append(ends, st.Size())
		}
		s.Close()

		// Tear the tail: cut cutBack bytes off the end, bounded below by the
		// header — a crash tears records, never the header, which was on
		// disk before the first record was acknowledged (header corruption
		// is bitrot, and the store surfaces it loudly instead of silently
		// dropping the journal). Then append garbage where the torn bytes
		// were.
		path := walFileIn(t, dir)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, records, err := splitWALHeader(data, path)
		if err != nil {
			t.Fatal(err)
		}
		headerLen := len(data) - len(records)
		cut := len(data) - int(cutBack)
		if cut < headerLen {
			cut = headerLen
		}
		torn := append(append([]byte(nil), data[:cut]...), garbage...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, undecodable := replayRecords("fuzz", torn[headerLen:], func(Receipt) error { return nil })
		// Recovery must not crash, and must yield at least every record
		// wholly before the cut, in order. (Garbage that happens to parse as
		// a valid frame can extend the replay; it can never reorder or drop
		// the intact prefix.)
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		intact := 0
		for _, end := range ends {
			if end <= int64(cut) {
				intact++
			}
		}
		var replayed []*Op
		_, err = s2.Replay("prog-A", func(r Receipt) error {
			op := r.Op()
			replayed = append(replayed, op)
			return nil
		})
		if undecodable != nil {
			want := ErrCorrupt
			if errors.Is(undecodable, ErrUnknownVersion) {
				want = ErrUnknownVersion
			}
			if !errors.Is(err, want) || errors.Is(err, ErrCorrupt) == errors.Is(err, ErrUnknownVersion) {
				t.Fatalf("replay over a CRC-valid record that does not decode (%v) returned %v; want %v", undecodable, err, want)
			}
			if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, torn) {
				t.Fatalf("the refused replay changed the journal (read err %v)", rerr)
			}
			s2.Close()
			return
		}
		if err != nil {
			t.Fatalf("replay over torn tail errored: %v", err)
		}
		if len(replayed) < intact {
			t.Fatalf("lost acknowledged records: replayed %d, %d were intact before the cut", len(replayed), intact)
		}
		for i := 0; i < intact; i++ {
			if got, want := string(replayed[i].Raw), fmt.Sprintf("rec-%d", i); got != want {
				t.Fatalf("record %d corrupted: got %q want %q", i, got, want)
			}
		}

		// The truncated journal must accept appends and round-trip them.
		if err := s2.Append("prog-A", batchOp("s", uint64(ops+1), "post-tear")); err != nil {
			t.Fatalf("append after torn-tail recovery: %v", err)
		}
		s2.Close()
		s3, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s3.Close()
		var final []*Op
		if _, err := s3.Replay("prog-A", func(r Receipt) error {
			op := r.Op()
			final = append(final, op)
			return nil
		}); err != nil {
			t.Fatalf("second recovery errored: %v", err)
		}
		if len(final) != len(replayed)+1 {
			t.Fatalf("second recovery replayed %d ops, want %d", len(final), len(replayed)+1)
		}
		if got := string(final[len(final)-1].Raw); got != "post-tear" {
			t.Fatalf("post-tear record lost: tail is %q", got)
		}
	})
}
