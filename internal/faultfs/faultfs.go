// Package faultfs is a fault-injecting filesystem for the durability
// layers: it wraps any journal.FS and, driven by a deterministically seeded
// RNG, injects the disk failure modes that crash-recovery code must survive
// but ordinary tests never exercise — torn writes (a random prefix lands,
// then the write fails), short writes, ENOSPC, EIO, slow or failed fsyncs,
// and crash points (after the Nth operation every call fails, modeling the
// process dying mid-sequence from the disk's point of view).
//
// Thread it through journal.Options.FS (or archive.DirStore's FS) and every
// byte the journal, snapshot chain, tether, and archive tiers persist flows
// through the injector. The same seed replays the same fault schedule, so a
// failure found under -race shrinks to a deterministic reproduction.
package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"sync"
	"syscall"

	"repro/internal/journal"
)

// ErrCrashed is returned by every operation after the crash point fires:
// from the filesystem's perspective the process is gone. Tests then discard
// the store and re-open the directory with a healthy FS, exactly like a
// post-crash boot.
var ErrCrashed = errors.New("faultfs: crashed")

// ErrShortWrite is returned (with a partial byte count) by injected short
// writes.
var ErrShortWrite = errors.New("faultfs: short write")

// Plan is a deterministic fault schedule. Rates are probabilities in
// [0, 1] evaluated per operation against the seeded RNG; CrashAfterOps is
// an absolute operation count. The zero Plan injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision. The same Plan over the
	// same operation sequence injects the same faults.
	Seed int64

	// TornWriteRate is the probability a Write persists only a random
	// prefix and then fails with EIO — the torn-write model journal
	// rollback and recovery's truncate-at-first-bad-record must absorb.
	TornWriteRate float64
	// ShortWriteRate is the probability a Write persists a random prefix
	// and returns (n, ErrShortWrite) without tearing the medium.
	ShortWriteRate float64
	// WriteErrRate is the probability a Write fails cleanly (no bytes
	// land) with ENOSPC — the disk-full model.
	WriteErrRate float64
	// SyncErrRate is the probability a Sync fails with EIO; the bytes may
	// or may not be durable, which is exactly why the journal rolls the
	// record back.
	SyncErrRate float64
	// OpenErrRate / RenameErrRate / TruncateErrRate fail the metadata
	// operations snapshots and tethers depend on.
	OpenErrRate     float64
	RenameErrRate   float64
	TruncateErrRate float64

	// CrashAfterOps, when > 0, latches the crash state once that many
	// operations (writes, syncs, opens, renames, removes, truncates) have
	// run: the Nth and every later operation fail with ErrCrashed. A torn
	// prefix of the crashing write still lands, modeling power loss
	// mid-write.
	CrashAfterOps uint64
}

// Stats counts the faults actually injected — tests assert on these so a
// "survived every fault" pass can't silently mean "no fault fired".
type Stats struct {
	Ops         uint64
	TornWrites  uint64
	ShortWrites uint64
	WriteErrs   uint64
	SyncErrs    uint64
	OpenErrs    uint64
	RenameErrs  uint64
	TruncErrs   uint64
	CrashedOps  uint64
}

// FS wraps an inner journal.FS with fault injection. Safe for concurrent
// use; the RNG and counters are guarded by one mutex (the injector is for
// tests, not hot paths).
type FS struct {
	inner journal.FS
	plan  Plan

	// mu guards rng and stats; crash latching is atomic-free under the
	// same lock to keep fault ordering deterministic per seed.
	mu      sync.Mutex
	rng     *rand.Rand
	stats   Stats
	crashed bool
	forced  bool
}

// Wrap builds a fault-injecting FS over inner (nil inner wraps the real
// filesystem) with the given plan.
func Wrap(inner journal.FS, plan Plan) *FS {
	if inner == nil {
		inner = journal.OSFS()
	}
	return &FS{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Stats snapshots the injected-fault counters.
func (f *FS) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Crashed reports whether the crash point has fired.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// ForceENOSPC flips the deterministic disk-full switch: while set, every
// Write fails cleanly with ENOSPC regardless of the plan's rates. Tests
// flip it mid-run to drive persistent-failure paths (the journal's write
// breaker) at an exact point in the operation sequence, then flip it back
// to model the operator freeing space.
func (f *FS) ForceENOSPC(on bool) {
	f.mu.Lock()
	f.forced = on
	f.mu.Unlock()
}

// decision is one operation's injected fate, resolved under mu so the
// fault sequence is a pure function of (seed, operation order).
type decision struct {
	crash bool
	fault bool
	// tornFrac positions the torn/short prefix within the write.
	tornFrac float64
	short    bool
}

func (f *FS) decide(rate float64) decision {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Ops++
	if f.plan.CrashAfterOps > 0 && f.stats.Ops >= f.plan.CrashAfterOps {
		f.crashed = true
	}
	if f.crashed {
		f.stats.CrashedOps++
		return decision{crash: true, tornFrac: f.rng.Float64()}
	}
	d := decision{tornFrac: f.rng.Float64()}
	if rate > 0 && f.rng.Float64() < rate {
		d.fault = true
	}
	return d
}

// decideWrite resolves a write's fate across the three write-fault tiers.
func (f *FS) decideWrite() (d decision, kind int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Ops++
	if f.plan.CrashAfterOps > 0 && f.stats.Ops >= f.plan.CrashAfterOps {
		f.crashed = true
	}
	if f.crashed {
		f.stats.CrashedOps++
		return decision{crash: true, tornFrac: f.rng.Float64()}, 0
	}
	if f.forced {
		f.stats.WriteErrs++
		return decision{fault: true}, 3
	}
	d = decision{tornFrac: f.rng.Float64()}
	roll := f.rng.Float64()
	switch {
	case roll < f.plan.TornWriteRate:
		d.fault = true
		kind = 1
		f.stats.TornWrites++
	case roll < f.plan.TornWriteRate+f.plan.ShortWriteRate:
		d.fault, d.short = true, true
		kind = 2
		f.stats.ShortWrites++
	case roll < f.plan.TornWriteRate+f.plan.ShortWriteRate+f.plan.WriteErrRate:
		d.fault = true
		kind = 3
		f.stats.WriteErrs++
	}
	return d, kind
}

func (f *FS) count(field *uint64) {
	f.mu.Lock()
	*field++
	f.mu.Unlock()
}

// OpenFile injects open failures and wraps the file for write/sync faults.
func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	d := f.decide(f.plan.OpenErrRate)
	if d.crash {
		return nil, fmt.Errorf("faultfs: open %s: %w", name, ErrCrashed)
	}
	if d.fault {
		f.count(&f.stats.OpenErrs)
		return nil, &os.PathError{Op: "open", Path: name, Err: syscall.EIO}
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner, name: name}, nil
}

// ReadFile is fault-free: reads don't mutate durable state, and recovery
// reading back what survived is precisely what the tests assert on.
func (f *FS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

// ReadDir is fault-free like ReadFile.
func (f *FS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }

// Remove passes through but respects the crash latch.
func (f *FS) Remove(name string) error {
	if d := f.decide(0); d.crash {
		return fmt.Errorf("faultfs: remove %s: %w", name, ErrCrashed)
	}
	return f.inner.Remove(name)
}

// Rename injects failures on the snapshot-install step.
func (f *FS) Rename(oldpath, newpath string) error {
	d := f.decide(f.plan.RenameErrRate)
	if d.crash {
		return fmt.Errorf("faultfs: rename %s: %w", newpath, ErrCrashed)
	}
	if d.fault {
		f.count(&f.stats.RenameErrs)
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.EIO}
	}
	return f.inner.Rename(oldpath, newpath)
}

// Truncate injects failures on the torn-tail rollback step — the path that
// poisons a journal generation when it fails.
func (f *FS) Truncate(name string, size int64) error {
	d := f.decide(f.plan.TruncateErrRate)
	if d.crash {
		return fmt.Errorf("faultfs: truncate %s: %w", name, ErrCrashed)
	}
	if d.fault {
		f.count(&f.stats.TruncErrs)
		return &os.PathError{Op: "truncate", Path: name, Err: syscall.EIO}
	}
	return f.inner.Truncate(name, size)
}

// MkdirAll passes through (directory creation precedes any state worth
// corrupting).
func (f *FS) MkdirAll(path string, perm os.FileMode) error { return f.inner.MkdirAll(path, perm) }

// file wraps one open file with the injector's write/sync faults.
type file struct {
	fs    *FS
	inner journal.File
	name  string
}

func (fl *file) Read(p []byte) (int, error) { return fl.inner.Read(p) }

func (fl *file) Write(p []byte) (int, error) {
	d, kind := fl.fs.decideWrite()
	if d.crash {
		// Power loss mid-write: a prefix may still reach the medium.
		if n := int(d.tornFrac * float64(len(p))); n > 0 {
			_, _ = fl.inner.Write(p[:n])
		}
		return 0, fmt.Errorf("faultfs: write %s: %w", fl.name, ErrCrashed)
	}
	if !d.fault {
		return fl.inner.Write(p)
	}
	switch kind {
	case 1: // torn: a prefix lands, the write reports EIO
		n := int(d.tornFrac * float64(len(p)))
		if n > 0 {
			_, _ = fl.inner.Write(p[:n])
		}
		return 0, &os.PathError{Op: "write", Path: fl.name, Err: syscall.EIO}
	case 2: // short: a prefix lands and is reported as such
		n := int(d.tornFrac * float64(len(p)))
		if n >= len(p) {
			n = len(p) - 1
		}
		if n > 0 {
			_, _ = fl.inner.Write(p[:n])
		}
		return n, fmt.Errorf("faultfs: write %s: %w", fl.name, ErrShortWrite)
	default: // clean failure: disk full, nothing lands
		return 0, &os.PathError{Op: "write", Path: fl.name, Err: syscall.ENOSPC}
	}
}

func (fl *file) Sync() error {
	d := fl.fs.decide(fl.fs.plan.SyncErrRate)
	if d.crash {
		return fmt.Errorf("faultfs: sync %s: %w", fl.name, ErrCrashed)
	}
	if d.fault {
		fl.fs.count(&fl.fs.stats.SyncErrs)
		return &os.PathError{Op: "sync", Path: fl.name, Err: syscall.EIO}
	}
	return fl.inner.Sync()
}

func (fl *file) Close() error               { return fl.inner.Close() }
func (fl *file) Stat() (os.FileInfo, error) { return fl.inner.Stat() }
func (fl *file) Truncate(size int64) error {
	d := fl.fs.decide(fl.fs.plan.TruncateErrRate)
	if d.crash {
		return fmt.Errorf("faultfs: truncate %s: %w", fl.name, ErrCrashed)
	}
	if d.fault {
		fl.fs.count(&fl.fs.stats.TruncErrs)
		return &os.PathError{Op: "truncate", Path: fl.name, Err: syscall.EIO}
	}
	return fl.inner.Truncate(size)
}
