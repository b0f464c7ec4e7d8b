package journal

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
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

// goroutineStacks returns the stack of every goroutine in the process.
func goroutineStacks() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// checkOnlyAppenders fails unless exactly n goroutines sit in Store.Commit
// and no goroutine alive was started by a function of this package outside
// its tests: the store runs no goroutine of its own. Goroutines other tests
// or earlier runs left exiting do not count, whoever started them.
func checkOnlyAppenders(t *testing.T, n int) {
	t.Helper()
	const pkg = "repro/internal/journal."
	committing := 0
	for _, g := range goroutineStacks() {
		if strings.Contains(g, pkg+"(*Store).Commit(") {
			committing++
		}
		lines := strings.Split(g, "\n")
		for i, line := range lines {
			if !strings.HasPrefix(line, "created by "+pkg) || i+1 == len(lines) {
				continue
			}
			file, _, _ := strings.Cut(strings.TrimSpace(lines[i+1]), ":")
			if !strings.HasSuffix(file, "_test.go") {
				t.Fatalf("the store started a goroutine of its own:\n%s", g)
			}
		}
	}
	if committing != n {
		t.Fatalf("%d goroutines in Store.Commit, want the %d blocked appenders", committing, n)
	}
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
	wg, errs := queueBehindLeader(t, s, fs, "prog-A", 1, 2, 3, 4, 5, 6, 7, 8)
	checkOnlyAppenders(t, 8)

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

// waitEntered returns once a journal Sync has started, and fails the test if
// none does: a group refused unwritten never reaches its fsync.
func waitEntered(t *testing.T, fs steppedFS, what string) {
	t.Helper()
	select {
	case <-fs.entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never reached its fsync", what)
	}
}

// TestFailedGroupFailsItsMembers: a group whose fsync fails is rolled back
// whole and every appender in it gets the error; the group counts one
// failure on the write breaker, however many records it held. The appender
// queued behind it takes the lead and its group lands, which resets the
// count.
func TestFailedGroupFailsItsMembers(t *testing.T) {
	dir := t.TempDir()
	fs := newSteppedFS()
	s, err := Open(dir, Options{Fsync: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	wg, errs := queueBehindLeader(t, s, fs, "prog-A", 1, 2, 3, 4)
	fs.verdict <- nil // 1 lands; 2 leads {2, 3, 4}
	waitEntered(t, fs, "the group {2, 3, 4}")
	wg.Add(1)
	var lateErr error
	go func() {
		defer wg.Done()
		lateErr = s.Append("prog-A", batchOp("s", 5, "r"))
	}()
	waitPending(t, s.log("prog-A"), 1)
	injected := errors.New("injected fsync failure")
	fs.verdict <- injected
	waitEntered(t, fs, "the group {5} behind the failed one")
	if n, open := s.Breaker("prog-A"); n != 1 || open {
		t.Fatalf("breaker after a failed group of 3 = %d failures, open %v; want 1, closed", n, open)
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
		if !errors.Is(err, injected) || errors.Is(err, ErrBreakerOpened) {
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

// TestBreakerCountsFailedGroups: full groups fail one after another. The
// first, MaxBatch records, leaves the breaker closed and the group behind it
// reaches the disk; ReadOnlyThreshold consecutive failed groups open it, the
// leader of the last is told so, and the next commit is refused unwritten.
func TestBreakerCountsFailedGroups(t *testing.T) {
	const maxBatch = 4
	dir := t.TempDir()
	fs := newSteppedFS()
	s, err := Open(dir, Options{Fsync: true, MaxBatch: maxBatch, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	pl := s.log("prog-A")
	var wg sync.WaitGroup
	errs := make([]error, 2+ReadOnlyThreshold*maxBatch) // by seq
	appendAsync := func(seq uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[seq] = s.Append("prog-A", batchOp("s", seq, "r"))
		}()
	}
	seq := uint64(1)
	appendAsync(seq)
	waitEntered(t, fs, "the first record")
	queueGroup := func() {
		for i := 1; i <= maxBatch; i++ {
			seq++
			appendAsync(seq)
			waitPending(t, pl, i)
		}
	}
	queueGroup()
	fs.verdict <- nil // 1 lands; the first full group leads
	waitEntered(t, fs, "failed group 1")
	injected := errors.New("injected fsync failure")
	for g := 1; g <= ReadOnlyThreshold; g++ {
		if g < ReadOnlyThreshold {
			queueGroup()
		}
		fs.verdict <- injected
		if g == ReadOnlyThreshold {
			break
		}
		waitEntered(t, fs, fmt.Sprintf("the group behind %d failed groups of %d", g, maxBatch))
		if n, open := s.Breaker("prog-A"); n != g || open {
			t.Fatalf("breaker after %d failed groups of %d = %d failures, open %v; want %d, closed", g, maxBatch, n, open, g)
		}
	}
	wg.Wait()
	if n, open := s.Breaker("prog-A"); n != ReadOnlyThreshold || !open {
		t.Fatalf("breaker after %d failed groups = %d failures, open %v; want open", ReadOnlyThreshold, n, open)
	}
	if errs[1] != nil {
		t.Fatalf("append 1: %v", errs[1])
	}
	lastLeader := uint64(2 + (ReadOnlyThreshold-1)*maxBatch)
	for seq := uint64(2); seq < uint64(len(errs)); seq++ {
		err := errs[seq]
		if !errors.Is(err, injected) || errors.Is(err, ErrBreakerOpened) != (seq == lastLeader) {
			t.Fatalf("append %d: %v; want the injected failure, and ErrBreakerOpened for %d alone", seq, err, lastLeader)
		}
	}
	if err := s.Append("prog-A", batchOp("s", 99, "r")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("append with the breaker open: %v; want ErrReadOnly", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayedSeqs(t, dir, "prog-A"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("replayed %v, want [1]: failed and refused groups leave no record", got)
	}
}
