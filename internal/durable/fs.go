// Package durable makes ingest crash-safe: an append-only, checksummed
// write-ahead log of listing deltas plus versioned, checksummed snapshots of
// the sealed column store, recovered on startup into an engine provably
// byte-identical to a cold build over the acknowledged delta prefix.
//
// The durability contract, by fsync policy:
//
//   - FsyncAlways: an acknowledged delta is on stable storage before the
//     producer sees the acknowledgement. kill -9, torn writes and power loss
//     lose at most deltas that were never acknowledged.
//   - FsyncInterval: acknowledgements may precede the periodic fsync by up
//     to the interval; a crash loses at most that window.
//   - FsyncOff: the OS flushes when it pleases; for benchmarks and tests.
//
// Snapshots are pure optimization: recovery without any snapshot replays the
// whole WAL through the ordinary ingest pipeline. A corrupt snapshot is
// quarantined (renamed aside, counted in metrics) and recovery falls back to
// the previous generation or the cold WAL replay — partial state is never
// served.
package durable

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// File is the I/O surface the durable layer needs from one open file.
// ReaderAt is what the lazy snapshot reader pages column segments in with:
// positioned reads that never disturb the sequential cursor, so concurrent
// fetches can share one handle.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	Sync() error
}

// FS abstracts the filesystem so tests can inject failures, short writes and
// corruption at every call (see the errfs subpackage). Semantics mirror the
// os package; SyncDir is the directory-entry barrier an atomic-rename
// protocol needs (fsync of the directory, making creates/renames/removes in
// it durable).
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir returns the names (not paths) of the directory's entries,
	// sorted.
	ReadDir(dir string) ([]string, error)
	Truncate(name string, size int64) error
	SyncDir(dir string) error
}

// fileReader is an optional FS fast path: one stat-presized read of a whole
// file. OSFS and the in-memory test filesystem provide it; the fault injector
// deliberately does not, so recovery-path reads stay visible to error
// injection as individual read ops.
type fileReader interface {
	ReadFile(name string) ([]byte, error)
}

// readWhole reads a file's full contents, taking the presized fast path when
// the filesystem offers one. Recovery reads the whole multi-megabyte WAL;
// io.ReadAll's grow-from-512-bytes resizing is measurable there.
func readWhole(fsys FS, path string) ([]byte, error) {
	if fr, ok := fsys.(fileReader); ok {
		return fr.ReadFile(path)
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// OSFS is the production FS backed by the os package.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error {
	return os.MkdirAll(path, perm)
}

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
