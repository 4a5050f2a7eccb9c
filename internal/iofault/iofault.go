// Package iofault wraps the persist path's file operations behind a small
// filesystem interface with scriptable fault injection. Production code runs
// on the passthrough OS implementation; torture tests swap in a Faulty
// wrapper that can fail, tear, or "crash" (panic) at any single operation —
// identified by (operation kind, occurrence index) — while recording the
// full operation trace so a sweep can enumerate every injection point.
//
// Fault actions:
//
//   - error: the operation returns a synthetic error without side effects
//     beyond what already happened (a torn write persists its prefix);
//   - torn write: half the buffer reaches the file, then the write errors —
//     the short-write shape a full disk or a signal can produce;
//   - crash: the operation panics with a *Crash value after (for writes)
//     persisting the torn prefix, simulating the process dying at exactly
//     that point; the test recovers the panic and "restarts".
//
// Injection counts are exported as ovm_iofault_* counters on the shared obs
// registry, so a torture run's /metrics (or test assertions) can confirm the
// faults actually fired.
package iofault

import (
	"fmt"
	"io/fs"
	"os"
	"sync"

	"ovm/internal/mmapio"
	"ovm/internal/obs"
)

// Op identifies one kind of file operation on the persist path.
type Op string

// The persist path's operation kinds, in the order writeIndexAtomic uses
// them. OpRemove covers the temp-file cleanup on error paths; OpMap is the
// read-only mapping of a file just written, which a daemon serves next;
// OpOpenAppend opens the update log, whose appends are writes and syncs
// like a temp file's.
const (
	OpCreateTemp Op = "create-temp"
	OpWrite      Op = "write"
	OpChmod      Op = "chmod"
	OpSync       Op = "sync"
	OpClose      Op = "close"
	OpRename     Op = "rename"
	OpRemove     Op = "remove"
	OpSyncDir    Op = "sync-dir"
	OpMap        Op = "map"
	OpOpenAppend Op = "open-append"
)

// Ops lists every injectable operation kind.
var Ops = []Op{OpCreateTemp, OpWrite, OpChmod, OpSync, OpClose, OpRename, OpRemove, OpSyncDir, OpMap, OpOpenAppend}

// Action selects what an injected fault does.
type Action int

const (
	// ActError makes the operation return ErrInjected.
	ActError Action = iota
	// ActTornWrite applies only to OpWrite: half the buffer is written
	// through, then ErrInjected is returned. On other ops it behaves like
	// ActError.
	ActTornWrite
	// ActCrash panics with a *Crash after the torn prefix (for writes),
	// simulating the process dying mid-operation.
	ActCrash
)

func (a Action) String() string {
	switch a {
	case ActError:
		return "error"
	case ActTornWrite:
		return "torn-write"
	case ActCrash:
		return "crash"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// ErrInjected is the error returned by injected ActError/ActTornWrite
// faults.
var ErrInjected = fmt.Errorf("iofault: injected fault")

// Crash is the panic payload of an ActCrash fault. Tests recover it to
// simulate a restart; any other panic value is a real bug and must not be
// swallowed.
type Crash struct {
	Op         Op
	Occurrence int
}

func (c *Crash) String() string {
	return fmt.Sprintf("iofault: simulated crash at %s #%d", c.Op, c.Occurrence)
}

var (
	faultsInjected = obs.NewCounter("ovm_iofault_injected_total",
		"Faults injected by the iofault layer (errors and torn writes)")
	faultsCrashed = obs.NewCounter("ovm_iofault_crashes_total",
		"Simulated crash points triggered by the iofault layer")
)

// File is the subset of *os.File the persist path needs.
type File interface {
	Write(p []byte) (int, error)
	Chmod(mode fs.FileMode) error
	Sync() error
	Close() error
	Name() string
	Truncate(size int64) error
}

// FS abstracts the filesystem operations of the atomic-rewrite sequence
// and of the update log's appends.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	// OpenAppend opens name write-only for appending, creating it if it
	// does not exist.
	OpenAppend(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Stat(name string) (fs.FileInfo, error)
	// SyncDir opens the directory and fsyncs it, making a prior rename in
	// it durable. Failure is reported but the rename itself has happened.
	SyncDir(dir string) error
	// Map maps a file read-only (mmapio.Open).
	Map(name string) (*mmapio.Region, error)
}

// OS is the passthrough production implementation.
var OS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (osFS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (osFS) Rename(oldpath, newpath string) error    { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                { return os.Remove(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)   { return os.Stat(name) }
func (osFS) Map(name string) (*mmapio.Region, error) { return mmapio.Open(name) }
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Point is one executed operation in a Faulty trace: the Occurrence-th time
// Op ran since the last Reset.
type Point struct {
	Op         Op
	Occurrence int
}

// Faulty wraps an FS with scripted fault injection and operation tracing.
// It is safe for concurrent use; occurrence counting is per Op kind.
type Faulty struct {
	inner FS

	mu     sync.Mutex
	counts map[Op]int
	script map[Point]Action
	trace  []Point
}

// NewFaulty wraps inner (usually OS) with an empty script: every operation
// passes through, but the trace records each one so a recording pass can
// enumerate the injection points.
func NewFaulty(inner FS) *Faulty {
	return &Faulty{
		inner:  inner,
		counts: make(map[Op]int),
		script: make(map[Point]Action),
	}
}

// Inject schedules action at the occurrence-th execution (0-based, counted
// from the last Reset) of op.
func (f *Faulty) Inject(op Op, occurrence int, action Action) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.script[Point{Op: op, Occurrence: occurrence}] = action
}

// Reset clears the occurrence counters, the script, and the trace.
func (f *Faulty) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts = make(map[Op]int)
	f.script = make(map[Point]Action)
	f.trace = nil
}

// Trace returns the operations executed since the last Reset, in order.
func (f *Faulty) Trace() []Point {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Point, len(f.trace))
	copy(out, f.trace)
	return out
}

// step records one execution of op and returns the scheduled action for
// this occurrence (ok=false when none).
func (f *Faulty) step(op Op) (Point, Action, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := Point{Op: op, Occurrence: f.counts[op]}
	f.counts[op]++
	f.trace = append(f.trace, p)
	act, ok := f.script[p]
	return p, act, ok
}

// fire executes the non-write action for a triggered fault: error return or
// crash panic.
func fire(p Point, act Action) error {
	if act == ActCrash {
		faultsCrashed.Inc()
		panic(&Crash{Op: p.Op, Occurrence: p.Occurrence})
	}
	faultsInjected.Inc()
	return fmt.Errorf("%w: %s #%d", ErrInjected, p.Op, p.Occurrence)
}

func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	if p, act, ok := f.step(OpCreateTemp); ok {
		return nil, fire(p, act)
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: inner}, nil
}

func (f *Faulty) OpenAppend(name string) (File, error) {
	if p, act, ok := f.step(OpOpenAppend); ok {
		return nil, fire(p, act)
	}
	inner, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: inner}, nil
}

func (f *Faulty) Rename(oldpath, newpath string) error {
	if p, act, ok := f.step(OpRename); ok {
		return fire(p, act)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Faulty) Remove(name string) error {
	if p, act, ok := f.step(OpRemove); ok {
		return fire(p, act)
	}
	return f.inner.Remove(name)
}

func (f *Faulty) Stat(name string) (fs.FileInfo, error) {
	// Stat is read-only and never a durability hazard: not an injection
	// point, not traced.
	return f.inner.Stat(name)
}

func (f *Faulty) Map(name string) (*mmapio.Region, error) {
	if p, act, ok := f.step(OpMap); ok {
		return nil, fire(p, act)
	}
	return f.inner.Map(name)
}

func (f *Faulty) SyncDir(dir string) error {
	if p, act, ok := f.step(OpSyncDir); ok {
		return fire(p, act)
	}
	return f.inner.SyncDir(dir)
}

// faultyFile intercepts the per-file operations of a file created through a
// Faulty FS.
type faultyFile struct {
	fs    *Faulty
	inner File
}

func (ff *faultyFile) Name() string { return ff.inner.Name() }

func (ff *faultyFile) Write(b []byte) (int, error) {
	if p, act, ok := ff.fs.step(OpWrite); ok {
		// Torn write: persist a prefix so the on-disk temp is mid-write
		// garbage — exactly what a crashing writer leaves behind.
		n := 0
		if act == ActTornWrite || act == ActCrash {
			n, _ = ff.inner.Write(b[:len(b)/2])
		}
		if act == ActCrash {
			faultsCrashed.Inc()
			panic(&Crash{Op: p.Op, Occurrence: p.Occurrence})
		}
		faultsInjected.Inc()
		return n, fmt.Errorf("%w: %s #%d", ErrInjected, p.Op, p.Occurrence)
	}
	return ff.inner.Write(b)
}

func (ff *faultyFile) Chmod(mode fs.FileMode) error {
	if p, act, ok := ff.fs.step(OpChmod); ok {
		return fire(p, act)
	}
	return ff.inner.Chmod(mode)
}

func (ff *faultyFile) Sync() error {
	if p, act, ok := ff.fs.step(OpSync); ok {
		return fire(p, act)
	}
	return ff.inner.Sync()
}

// Truncate only cuts a failed append back off its file, after a fault: it
// is on no clean run's trace, so it is not an injection point.
func (ff *faultyFile) Truncate(size int64) error { return ff.inner.Truncate(size) }

func (ff *faultyFile) Close() error {
	if p, act, ok := ff.fs.step(OpClose); ok {
		return fire(p, act)
	}
	return ff.inner.Close()
}
