// Package wal is the campaign runtime's durability layer: an append-only,
// length-prefixed, CRC32C-checksummed binary event log with group commit.
// Writers enqueue records from any goroutine; a single committer goroutine
// batches them per fsync window (a configurable interval, cut short once
// 256 KiB are buffered), so the quote hot path never waits on a disk
// flush. Segments rotate at a size threshold and are periodically
// compacted into a snapshot record plus a truncated tail; recovery
// tolerates torn or partial trailing writes by truncating the final
// segment at the first bad frame.
//
// The package stores opaque (type, payload) records — the campaign event
// schema (create/observe/finish/expire/snapshot) lives in
// internal/campaign, which folds a replayed log back into live state via
// the engine's deterministic re-solve.
//
// Because this log guards real money-losing state, the test seam is
// first-class: the FS interface below abstracts the filesystem, and the
// package ships MemFS (an in-memory filesystem that tracks the synced
// prefix of every file and can simulate a power cut by dropping unsynced
// bytes) and FaultFS (byte-budgeted write-error and torn-write injection)
// so crash-recovery properties are tested at every byte offset, not just
// on the happy path.
package wal

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS abstracts the filesystem under the log: the production DirFS, the
// in-memory MemFS, and the fault-injecting FaultFS all implement it.
// Paths passed in are full paths (the log joins its directory itself).
type FS interface {
	// MkdirAll ensures dir exists.
	MkdirAll(dir string) error
	// ReadDir lists dir's file names (base names, sorted ascending).
	ReadDir(dir string) ([]string, error)
	// Create opens name fresh for appending, truncating any previous
	// content. The log only ever appends through a Create handle.
	Create(name string) (File, error)
	// Open opens name read-only, positioned at the start.
	Open(name string) (File, error)
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name to size bytes — recovery uses it to drop a torn
	// tail.
	Truncate(name string, size int64) error
}

// File is one open log segment: sequential reads or appends plus Sync,
// the durability barrier group commit batches around.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes written bytes to stable storage.
	Sync() error
}

// DirFS is the production FS: the real filesystem via package os.
type DirFS struct{}

// MkdirAll implements FS.
func (DirFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ReadDir implements FS.
func (DirFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Create implements FS.
func (DirFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

// Open implements FS.
func (DirFS) Open(name string) (File, error) { return os.Open(name) }

// Remove implements FS.
func (DirFS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (DirFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// join builds a path inside the log directory.
func join(dir, name string) string { return filepath.Join(dir, name) }
