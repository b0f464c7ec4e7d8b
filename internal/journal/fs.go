package journal

import (
	"io/fs"
	"os"
)

// FS is the filesystem surface the journal (and the archive tier built on
// it) performs all durability I/O through. Production code uses OSFS; tests
// thread internal/faultfs through Options.FS to exercise every durability
// layer under injected torn writes, ENOSPC, EIO, failed fsyncs, and crash
// points without touching a real disk's failure modes.
//
// The interface is deliberately the journal's exact I/O footprint — open
// for append or read, whole-file read, directory listing,
// remove/rename/truncate — rather than a general VFS: a fault injector that
// covers these calls covers every byte the journal ever persists. Replay
// reads a journal through OpenFile and File.Read, into a buffer it reuses,
// so faults injected on the open or the read reach recovery; segments,
// tether markers and exports are read whole with ReadFile.
type FS interface {
	// OpenFile opens name with the given flags, creating it at perm when
	// os.O_CREATE is set.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile returns the whole contents of name.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the directory entries of name.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Remove deletes name.
	Remove(name string) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// MkdirAll creates the directory path and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
}

// File is one open journal/snapshot file.
type File interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Stat() (os.FileInfo, error)
	Truncate(size int64) error
}

// OSFS returns the production FS: a passthrough to the os package.
func OSFS() FS { return osFS{} }

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
