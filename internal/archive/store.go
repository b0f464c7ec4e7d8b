package archive

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/journal"
)

// ErrNotFound reports a missing object.
var ErrNotFound = errors.New("archive: object not found")

// ObjectStore is the pluggable cold tier: a flat keyspace of immutable
// blobs. Keys are slash-separated paths; Put is idempotent (archive keys
// embed a content hash, so concurrent writers racing on one key are writing
// identical bytes). DirStore is the local-directory implementation; an S3-
// or blob-backed store drops in behind the same three calls.
type ObjectStore interface {
	// Put stores data at key, replacing any existing object.
	Put(key string, data []byte) error
	// Get returns the object at key, or ErrNotFound.
	Get(key string) ([]byte, error)
	// List returns every key with the given prefix, sorted.
	List(prefix string) ([]string, error)
}

// DirStore is the local-directory ObjectStore: each object is one file
// under Root, landed atomically (temp + fsync + rename) so a crash
// mid-upload never leaves a torn object. FS routes every file operation —
// tests inject faultfs to exercise the archive tier under disk faults.
type DirStore struct {
	root string
	fs   journal.FS
}

// NewDirStore opens (creating if needed) a directory-backed object store.
// A nil fs uses the real filesystem.
func NewDirStore(root string, vfs journal.FS) (*DirStore, error) {
	if vfs == nil {
		vfs = journal.OSFS()
	}
	if err := vfs.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("archive: open dir store: %w", err)
	}
	return &DirStore{root: root, fs: vfs}, nil
}

func (d *DirStore) path(key string) (string, error) {
	if key == "" || strings.Contains(key, "..") || strings.HasPrefix(key, "/") {
		return "", fmt.Errorf("archive: bad object key %q", key)
	}
	return filepath.Join(d.root, filepath.FromSlash(key)), nil
}

// Put lands data at key atomically, creating parent directories.
func (d *DirStore) Put(key string, data []byte) error {
	path, err := d.path(key)
	if err != nil {
		return err
	}
	if err := d.fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("archive: put %s: %w", key, err)
	}
	if err := journal.WriteFileAtomic(d.fs, path, data); err != nil {
		return fmt.Errorf("archive: put %s: %w", key, err)
	}
	return nil
}

// Get reads the object at key.
func (d *DirStore) Get(key string) ([]byte, error) {
	path, err := d.path(key)
	if err != nil {
		return nil, err
	}
	data, err := d.fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("archive: get %s: %w", key, err)
	}
	return data, nil
}

// List walks the store and returns every key with the prefix, sorted.
func (d *DirStore) List(prefix string) ([]string, error) {
	var keys []string
	var walk func(dir, keyBase string) error
	walk = func(dir, keyBase string) error {
		entries, err := d.fs.ReadDir(dir)
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("archive: list %s: %w", keyBase, err)
		}
		for _, e := range entries {
			key := e.Name()
			if keyBase != "" {
				key = keyBase + "/" + e.Name()
			}
			if e.IsDir() {
				if err := walk(filepath.Join(dir, e.Name()), key); err != nil {
					return err
				}
				continue
			}
			if strings.HasSuffix(key, ".tmp") {
				continue // torn upload, never installed
			}
			if strings.HasPrefix(key, prefix) {
				keys = append(keys, key)
			}
		}
		return nil
	}
	if err := walk(d.root, ""); err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}
