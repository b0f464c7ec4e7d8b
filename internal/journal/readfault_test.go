package journal_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/journal"
)

// TestReplayReadErrorFails: Replay reads the journal through the FS's open
// files, so a read error injected there fails it — naming the program,
// applying nothing and cutting nothing — and the same Replay succeeds once
// reads work again.
func TestReplayReadErrorFails(t *testing.T) {
	dir := t.TempDir()
	const program = "read-fault-program"
	st, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := st.Commit(program, &journal.Op{Kind: journal.OpBatchColumnar, Session: "s", Seq: seq, Raw: []byte("batch")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(files) != 1 {
		t.Fatalf("journals %v, err %v", files, err)
	}
	before, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	ffs := faultfs.Wrap(nil, faultfs.Plan{Seed: 1})
	st, err = journal.Open(dir, journal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ffs.FailReads(true)
	applied := 0
	n, err := st.Replay(program, func(journal.Receipt) error { applied++; return nil })
	if !errors.Is(err, syscall.EIO) || n != 0 || applied != 0 {
		t.Fatalf("replay under a read fault: %d ops (%d applied), err %v; want EIO and nothing applied", n, applied, err)
	}
	if !strings.HasPrefix(err.Error(), "journal: replay "+program+":") {
		t.Fatalf("replay error %q does not name the program", err)
	}
	after, err := os.ReadFile(files[0])
	if err != nil || string(after) != string(before) {
		t.Fatalf("a failed replay changed the journal: %d bytes before, %d after (err %v)", len(before), len(after), err)
	}
	ffs.FailReads(false)
	if n, err := st.Replay(program, func(journal.Receipt) error { return nil }); err != nil || n != 3 {
		t.Fatalf("replay once reads work: %d ops, err %v; want 3", n, err)
	}
}
