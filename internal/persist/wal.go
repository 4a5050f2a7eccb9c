package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ovm/internal/dynamic"
	"ovm/internal/iofault"
)

// Write-ahead log: the daemon's update log. Every accepted batch is
// appended (JSONL, one fsync'd line per batch) BEFORE the accept response,
// so a crash never loses an acknowledged update. Each entry carries the epoch
// the batch was promised; the index file is a checkpoint of some epoch,
// and on restart the entries that checkpoint already covers are skipped (a
// crash between the checkpoint rename and the WAL prune would otherwise
// double-apply them) while the remainder replays in order.
//
// The append path holds one O_APPEND descriptor (iofault.FS.OpenAppend)
// between appends. A torn trailing line
// is exactly the un-acknowledged crash shape: it is dropped, and cut off
// the file, on open. Pruning rewrites the remainder through the same
// atomic temp + rename + dir-sync machinery as the index itself, under
// path's temp pattern so CleanStaleTemps sweeps WAL temps too.

// WALEntry is one accepted update batch and the epoch it was promised.
type WALEntry struct {
	Epoch int64         `json:"epoch"`
	Batch dynamic.Batch `json:"batch"`
}

// WAL is the daemon's durable mutation queue sidecar file.
type WAL struct {
	fsys iofault.FS
	path string

	mu      sync.Mutex
	pending []WALEntry
	// f is the append descriptor, opened on the first Append and dropped
	// whenever Prune replaces or removes the file under it; size is the
	// length of the complete lines behind it, which a failed append
	// truncates back to.
	f    iofault.File
	size int64
}

// ReadWAL parses the log at path without touching it (a missing file is
// an empty log): the surviving entries, and the length of the complete
// lines they came from. Every complete append ends in a newline, so bytes
// past that length are the prefix of an append a crash tore — never
// fsync'd, never acknowledged, safe to drop. Any other unparseable line is
// corruption and errors out, as do entries whose epochs are not strictly
// consecutive.
func ReadWAL(path string) (entries []WALEntry, good int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, false, nil
		}
		return nil, 0, false, fmt.Errorf("persist: read wal %s: %w", path, err)
	}
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines[:len(lines)-1] {
		good += int64(len(line)) + 1
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var e WALEntry
		if err := json.Unmarshal(line, &e); err != nil || len(e.Batch) == 0 {
			return nil, 0, false, fmt.Errorf("persist: wal %s: line %d is corrupt mid-file", path, i+1)
		}
		if n := len(entries); n > 0 && e.Epoch != entries[n-1].Epoch+1 {
			return nil, 0, false, fmt.Errorf("persist: wal %s: epoch %d follows %d, want consecutive",
				path, e.Epoch, entries[n-1].Epoch)
		}
		entries = append(entries, e)
	}
	return entries, good, good < int64(len(data)), nil
}

// OpenWAL opens the log at path for appending and returns it with the
// number of torn trailing lines dropped (0 or 1). A torn tail is cut off
// the file as well: the next append would otherwise complete its bytes
// into a corrupt mid-file line.
func OpenWAL(fsys iofault.FS, path string) (*WAL, int, error) {
	entries, good, torn, err := ReadWAL(path)
	if err != nil {
		return nil, 0, err
	}
	dropped := 0
	if torn {
		dropped = 1
		if err := os.Truncate(path, good); err != nil {
			return nil, 0, fmt.Errorf("persist: wal %s: cutting torn tail: %w", path, err)
		}
	}
	return &WAL{fsys: fsys, path: path, pending: entries}, dropped, nil
}

// Pending returns a copy of the not-yet-pruned entries in epoch order.
func (w *WAL) Pending() []WALEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]WALEntry(nil), w.pending...)
}

// Depth reports how many accepted batches await pruning.
func (w *WAL) Depth() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// Append durably records one accepted batch: the line is written and
// fsync'd before Append returns, so the caller may acknowledge the update.
// A failed append leaves no partial line behind.
func (w *WAL) Append(e WALEntry) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.pending); n > 0 && e.Epoch != w.pending[n-1].Epoch+1 {
		return fmt.Errorf("persist: wal append epoch %d after %d, want consecutive", e.Epoch, w.pending[n-1].Epoch)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if w.f == nil {
		f, err := w.fsys.OpenAppend(w.path)
		if err != nil {
			return err
		}
		info, err := w.fsys.Stat(w.path)
		if err != nil {
			_ = f.Close()
			return err
		}
		w.f, w.size = f, info.Size()
		if w.size == 0 {
			// Possibly just created: make the directory entry as durable as
			// the lines about to be fsync'd into the file.
			_ = w.fsys.SyncDir(filepath.Dir(w.path))
		}
	}
	line = append(line, '\n')
	_, err = w.f.Write(line)
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		// The caller will refuse the batch, so its bytes must not stay: a
		// later append would bury them mid-file, or repeat their epoch.
		// Reopen on the next append whether or not the cut succeeds.
		_ = w.f.Truncate(w.size)
		_ = w.dropFile()
		return err
	}
	w.size += int64(len(line))
	w.pending = append(w.pending, e)
	return nil
}

// dropFile forgets the append descriptor; the next Append reopens path.
// Caller holds w.mu.
func (w *WAL) dropFile() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// Close releases the append descriptor. Every acknowledged line was
// fsync'd by its Append, so nothing is lost if the error is ignored. The
// log stays usable: a later Append reopens the file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dropFile()
}

// Prune drops every entry with epoch <= upTo — a checkpoint of the index
// covers them — rewriting the remainder atomically. An empty remainder
// removes the file.
func (w *WAL) Prune(upTo int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := w.pending[:0:0]
	for _, e := range w.pending {
		if e.Epoch > upTo {
			keep = append(keep, e)
		}
	}
	if len(keep) == len(w.pending) {
		return nil
	}
	if len(keep) == 0 {
		if err := w.fsys.Remove(w.path); err != nil && !os.IsNotExist(err) {
			return err
		}
		_ = w.dropFile()
		w.pending = nil
		return nil
	}
	tmp, err := w.fsys.CreateTemp(filepath.Dir(w.path), tempPattern(filepath.Base(w.path)))
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		_ = tmp.Close()
		_ = w.fsys.Remove(tmp.Name())
		return err
	}
	for _, e := range keep {
		line, err := json.Marshal(e)
		if err != nil {
			return cleanup(err)
		}
		if _, err := tmp.Write(append(line, '\n')); err != nil {
			return cleanup(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		_ = w.fsys.Remove(tmp.Name())
		return err
	}
	if err := w.fsys.Rename(tmp.Name(), w.path); err != nil {
		_ = w.fsys.Remove(tmp.Name())
		return err
	}
	_ = w.dropFile() // it points at the replaced file
	_ = w.fsys.SyncDir(filepath.Dir(w.path))
	w.pending = keep
	return nil
}
