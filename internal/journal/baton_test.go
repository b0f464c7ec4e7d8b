package journal

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// steppedFS holds every journal Sync until the test sends its verdict: the
// only way to keep a leader mid-flush while appenders queue behind it.
type steppedFS struct {
	FS
	entered chan struct{} // one receive per Sync that started
	verdict chan error    // one send per Sync, its result
}

func newSteppedFS() steppedFS {
	return steppedFS{FS: OSFS(), entered: make(chan struct{}), verdict: make(chan error)}
}

func (f steppedFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	inner, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return steppedFile{File: inner, fs: f}, nil
}

type steppedFile struct {
	File
	fs steppedFS
}

func (f steppedFile) Sync() error {
	f.fs.entered <- struct{}{}
	return <-f.fs.verdict
}

// queueBehindLeader starts one Append per seq in order, each in its own
// goroutine, and returns once the first is stalled in its fsync and the rest
// sit in the pending queue in that order. errs[i] is seqs[i]'s result after
// wg.Wait.
func queueBehindLeader(t *testing.T, s *Store, fs steppedFS, programID string, seqs ...uint64) (*sync.WaitGroup, []error) {
	t.Helper()
	pl := s.log(programID)
	errs := make([]error, len(seqs))
	var wg sync.WaitGroup
	for i, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Append(programID, batchOp("s", seq, "r"))
		}()
		if i == 0 {
			<-fs.entered
			continue
		}
		waitPending(t, pl, i)
	}
	return &wg, errs
}

// waitPending returns once n records sit in the program's pending queue.
func waitPending(t *testing.T, pl *progLog, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		pl.pendMu.Lock()
		got := len(pl.pending)
		pl.pendMu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending queue holds %d records, want %d", got, n)
		}
		runtime.Gosched()
	}
}

// replayedSeqs reopens dir and returns the journaled Seqs in replay order.
func replayedSeqs(t *testing.T, dir, programID string) []uint64 {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var seqs []uint64
	for _, op := range collect(t, s, programID) {
		seqs = append(seqs, op.Seq)
	}
	return seqs
}

// TestLeaderHandsBaton pins leader-based group commit: with one leader
// stalled in fsync and seven appenders queued behind it at MaxBatch 3, the
// queue drains in ⌈7/3⌉ further groups, each led by the appender whose
// record heads it, in enqueue order — and the store runs no goroutine of
// its own at any point.
func TestLeaderHandsBaton(t *testing.T) {
	dir := t.TempDir()
	fs := newSteppedFS()
	s, err := Open(dir, Options{Fsync: true, MaxBatch: 3, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	wg, errs := queueBehindLeader(t, s, fs, "prog-A", 1, 2, 3, 4, 5, 6, 7, 8)
	if got := runtime.NumGoroutine(); got != before+8 {
		t.Fatalf("%d goroutines with 8 appenders blocked, want %d: the store started its own", got, before+8)
	}

	fs.verdict <- nil // the stalled leader's group of one
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	syncs := 1
	for drained := false; !drained; {
		select {
		case <-fs.entered:
			syncs++
			fs.verdict <- nil
		case <-done:
			drained = true
		}
	}
	if syncs != 4 {
		t.Fatalf("%d fsyncs for 1 stalled + 7 queued records at MaxBatch 3, want 4", syncs)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i+1, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayedSeqs(t, dir, "prog-A")
	if len(got) != 8 {
		t.Fatalf("replayed %d records, want 8", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("replay order %v: want enqueue order", got)
		}
	}
}

// TestFailedGroupFailsItsMembers: a group whose fsync fails is rolled back
// whole and every appender in it gets the error, each counting one failed
// commit on the write breaker; the appender queued behind it takes the lead
// and its group lands, which resets the count. The failed group holds two
// records: a third would open the breaker, and the next group would be
// refused unwritten (TestCommitBreaker).
func TestFailedGroupFailsItsMembers(t *testing.T) {
	dir := t.TempDir()
	fs := newSteppedFS()
	s, err := Open(dir, Options{Fsync: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	wg, errs := queueBehindLeader(t, s, fs, "prog-A", 1, 2, 3)
	fs.verdict <- nil // 1 lands; 2 leads {2, 3}
	<-fs.entered
	wg.Add(1)
	var lateErr error
	go func() {
		defer wg.Done()
		lateErr = s.Append("prog-A", batchOp("s", 5, "r"))
	}()
	waitPending(t, s.log("prog-A"), 1)
	injected := errors.New("injected fsync failure")
	fs.verdict <- injected
	<-fs.entered // 5 leads the next group
	if n, open := s.Breaker("prog-A"); n != 2 || open {
		t.Fatalf("breaker after a failed group of 2 = %d failures, open %v; want 2, closed", n, open)
	}
	fs.verdict <- nil
	wg.Wait()
	if n, _ := s.Breaker("prog-A"); n != 0 {
		t.Fatalf("breaker counts %d failures after a group landed, want 0", n)
	}

	if errs[0] != nil || lateErr != nil {
		t.Fatalf("appends outside the failed group: %v, %v", errs[0], lateErr)
	}
	for i, err := range errs[1:] {
		if !errors.Is(err, injected) {
			t.Fatalf("append %d shared the failed group and returned %v", i+2, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayedSeqs(t, dir, "prog-A"); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("replayed %v, want [1 5]: the failed group must leave no record", got)
	}
}
