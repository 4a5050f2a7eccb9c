package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ovm/internal/dynamic"
	"ovm/internal/iofault"
	"ovm/internal/mmapio"
	"ovm/internal/obs"
	"ovm/internal/persist"
	"ovm/internal/serialize"
	"ovm/internal/service"
)

// Persistence trade-off: the WAL sidecar is the update log and the index
// file is a checkpoint. A batch costs one fsync'd JSONL line — async at
// accept, -sync-updates just before the swap — and never touches the
// index file. The file is rewritten whole (export, temp + fsync + rename,
// then WAL prune) only once the log holds -compact-log batches, once a
// walk set's overlay outgrows its share, and once more at a graceful stop,
// so its O(index size) cost is paid per many batches and the restart
// replay stays bounded. The checkpoint is also the walk sets' only fold:
// the writer streams each set from its mapped base plus heap overlay, and
// the file just written is mapped and becomes the base every later
// version serves, with an overlay of only what changed since. Only the
// write holds up the update being swapped in; the new file is verified
// and installed beside the updates that follow. So the heap holds
// overlays only. A restart maps the checkpoint — the very bytes the
// process served — and replays the WAL through the live coalesce+repair
// path. An index written by an earlier daemon may still carry batches in
// its own log section; they replay first and fold into the next
// checkpoint. -compact-log 0 never checkpoints, and repairs then fold
// outgrown overlays into heap bases instead.

// storeOpts names the index file a store serves.
type storeOpts struct {
	index   string // the checkpoint; its WAL is index + ".wal"
	name    string // dataset registration name
	compact int    // checkpoint once the update log holds this many batches (0 = never)
}

// errQuarantined reports an index file that could not be read and has been
// moved aside: the daemon starts degraded instead of crash-looping.
var errQuarantined = errors.New("index file quarantined")

// store is one served index file with its WAL, and the service whose
// durability hooks write them.
type store struct {
	fsys   iofault.FS
	logger *obs.Logger
	opts   storeOpts
	svc    *service.Service
	wal    *persist.WAL

	// legacyLog counts the batches in the loaded file's own log section:
	// replayed at load, counted as log depth until the first checkpoint
	// folds them in. Stats readers load it while an update stores it.
	legacyLog atomic.Int64

	// installs tracks the checkpoints being verified and installed as the
	// dataset's base; installing says one is, so an overlay that outgrew its
	// share is not checkpointed again before its checkpoint is the base.
	installs   sync.WaitGroup
	installing atomic.Int32
}

// openStore loads the checkpoint at o.index, builds a service on cfg with
// the durability hooks set, registers the dataset, and replays the update
// log. It returns only once the dataset is at the last acknowledged epoch,
// so a caller that starts listening afterwards never answers from behind.
// All file mutations go through fsys.
func openStore(fsys iofault.FS, cfg service.Config, o storeOpts) (*store, error) {
	st := &store{fsys: fsys, logger: cfg.Logger, opts: o}
	// A crash during a checkpoint can leave *.tmp-* files next to the index
	// (the rename never happened, so the index itself is still the complete
	// old checkpoint). Sweep them before loading.
	if removed, err := persist.CleanStaleTemps(fsys, o.index); err == nil && len(removed) > 0 {
		st.logger.Warn("removed stale index temp files from an interrupted checkpoint", obs.F("files", strings.Join(removed, ", ")))
	}
	mi, err := st.loadIndex()
	if err != nil {
		return nil, err
	}
	idx := mi.Index
	queued, queuedFirst, err := st.openWAL(idx.BaseEpoch + int64(len(idx.Updates)))
	if err != nil {
		_ = mi.Close()
		return nil, err
	}
	st.legacyLog.Store(int64(len(idx.Updates)))
	cfg.UpdateLogDepth = func(string) int { return st.logDepth() }
	// Durability before acknowledgement: an async-accepted batch is on
	// disk (fsync'd WAL line) before the accepted response is sent.
	cfg.OnEnqueue = func(_ string, batch dynamic.Batch, epoch int64) error {
		return st.wal.Append(persist.WALEntry{Epoch: epoch, Batch: batch})
	}
	cfg.OnUpdate = st.beforeSwap
	mode := "heap"
	fields := []obs.Field{
		obs.F("path", o.index),
		obs.F("n", idx.Sys.N()), obs.F("r", idx.Sys.R()),
		obs.F("sketches", len(idx.Sketches)), obs.F("walks", len(idx.Walks)),
		obs.F("replayed", len(idx.Updates)+len(queued)),
		obs.F("epoch", idx.BaseEpoch+int64(len(idx.Updates)+len(queued))),
	}
	if mi.Mapped() {
		mode = "mmap"
		fields = append(fields, obs.F("zeroCopy", fmt.Sprintf("%d bytes zero-copy", mi.MappedBytes())))
	}
	st.svc = service.New(cfg)
	if err := st.register(mi, queued, queuedFirst); err != nil {
		st.svc.Close()
		return nil, err
	}
	st.logger.Info("loaded index (no recomputation)", append([]obs.Field{obs.F("mode", mode)}, fields...)...)
	return st, nil
}

// register hands the loaded file to the service as the dataset (replaying
// its own log section, if it has one) and then drains the batches recovered
// from the WAL through the same applier as live traffic, in either update
// mode, so they land on the epochs that were promised.
func (st *store) register(mi *serialize.MappedIndex, queued []dynamic.Batch, queuedFirst int64) error {
	if err := st.svc.AddMapped(st.opts.name, mi, st.opts.compact > 0); err != nil {
		return err
	}
	if len(queued) == 0 {
		return nil
	}
	if serr := st.svc.SeedQueued(st.opts.name, queued, queuedFirst); serr != nil {
		return serr
	}
	if serr := st.svc.WaitIdle(context.Background(), st.opts.name); serr != nil {
		return serr
	}
	return nil
}

// loadIndex reads the checkpoint zero-copy from an mmap'd region (where the
// platform cannot map, serialize.OpenMapped parses a heap read instead).
// The service owns the mapping from registration on: every dataset version
// built on it holds it, and it closes once the last of them and of the
// requests reading them is gone — after the next checkpoint has become the
// base (see checkpoint). With -compact-log 0 no checkpoint replaces it, so
// it stays open for the process lifetime. A missing
// file is the caller's typo and an intact file of another format version is
// one this build cannot serve: neither is corruption, both are returned as
// is (fatal at startup) with the file and its WAL left where they are. Any
// other unreadable file (truncated, CRC mismatch, bad magic) is moved aside
// to <path>.corrupt and reported as errQuarantined.
func (st *store) loadIndex() (*serialize.MappedIndex, error) {
	mi, err := serialize.OpenMapped(st.opts.index)
	if err == nil {
		return mi, nil
	}
	if os.IsNotExist(err) || errors.Is(err, serialize.ErrUnsupportedVersion) {
		return nil, err
	}
	dst, qerr := persist.Quarantine(st.fsys, st.opts.index)
	if qerr != nil {
		st.logger.Warn("index unreadable and quarantine failed; serving degraded",
			obs.F("index", st.opts.index), obs.F("err", err), obs.F("quarantineErr", qerr))
	} else {
		st.logger.Warn("index unreadable; quarantined for inspection",
			obs.F("index", st.opts.index), obs.F("err", err), obs.F("movedTo", dst))
	}
	return nil, fmt.Errorf("%w: %v", errQuarantined, err)
}

// openWAL opens (or creates) the index's write-ahead sidecar and
// reconciles it with the epoch the checkpoint reaches: entries it already
// covers (a crash landed between the checkpoint rename and the WAL prune)
// are pruned as duplicates; the remainder must continue that epoch
// contiguously and is returned for replay. A WAL that cannot be reconciled
// is quarantined, never deleted: it is the only copy of the acknowledged
// batches in it.
func (st *store) openWAL(served int64) ([]dynamic.Batch, int64, error) {
	walPath := st.opts.index + ".wal"
	if removed, err := persist.CleanStaleTemps(st.fsys, walPath); err == nil && len(removed) > 0 {
		st.logger.Warn("removed stale WAL temp files from an interrupted prune", obs.F("files", strings.Join(removed, ", ")))
	}
	quarantine := func() error {
		dst, err := persist.Quarantine(st.fsys, walPath)
		if err != nil {
			return err
		}
		st.logger.Warn("WAL quarantined for inspection; starting with an empty log", obs.F("movedTo", dst))
		st.wal, _, err = persist.OpenWAL(st.fsys, walPath)
		return err
	}
	var torn int
	var err error
	if st.wal, torn, err = persist.OpenWAL(st.fsys, walPath); err != nil {
		// Mid-file corruption: acknowledged batches may be lost; keep the
		// evidence and start with an empty log rather than crash-looping.
		st.logger.Warn("update WAL unreadable", obs.F("wal", walPath), obs.F("err", err))
		return nil, 0, quarantine()
	}
	if torn > 0 {
		// A torn final line is a batch whose accepted response may never
		// have been sent; dropping it is the documented crash semantics.
		st.logger.Warn("dropped torn WAL tail entry (crash mid-append)", obs.F("entries", torn))
	}
	if err := st.wal.Prune(served); err != nil {
		return nil, 0, err
	}
	rem := st.wal.Pending()
	if len(rem) == 0 {
		return nil, 0, nil
	}
	if rem[0].Epoch != served+1 {
		st.logger.Warn("WAL does not continue the index epoch",
			obs.F("walFirst", rem[0].Epoch), obs.F("indexEpoch", served))
		return nil, 0, quarantine()
	}
	batches := make([]dynamic.Batch, len(rem))
	for i, e := range rem {
		batches[i] = e.Batch
	}
	return batches, served + 1, nil
}

// logDepth is how many batches a restart would replay, which is also what
// the next checkpoint absorbs: the WAL, applied and queued entries alike,
// plus the loaded file's own log until a checkpoint has folded it in.
func (st *store) logDepth() int {
	return int(st.legacyLog.Load()) + st.wal.Depth()
}

// beforeSwap is the service's OnUpdate hook: a repaired run is about to
// become visible as epoch, so its batches must be in the log first. Async
// batches were logged at accept, and batches replayed from the WAL at
// startup are in it by definition; only a live -sync-updates batch is new,
// and this append is its one durable write. Then, with the log long
// enough or a walk set's overlay past its share, checkpoint.
func (st *store) beforeSwap(_ string, batches []dynamic.Batch, epoch int64) error {
	first, logged := epoch-int64(len(batches))+1, st.wal.LastEpoch()
	for i, b := range batches {
		if e := first + int64(i); e > logged {
			if err := st.wal.Append(persist.WALEntry{Epoch: e, Batch: b}); err != nil {
				return err
			}
		}
	}
	if st.opts.compact > 0 {
		switch {
		case st.logDepth() >= st.opts.compact:
			st.checkpoint(service.CheckpointLog)
		case st.installing.Load() == 0 && st.svc.OverlayOutgrown(st.opts.name):
			st.checkpoint(service.CheckpointOverlay)
		}
	}
	return nil
}

// checkpoint rewrites the index file as the VISIBLE dataset, prunes the
// WAL behind it, and maps the file it wrote to serve it. Called before a
// swap it exports the pre-swap state, so it never outruns the log: the run
// being swapped in stays in the WAL and replays on top of the new base. A
// failure to write is only logged — the previous checkpoint and the whole
// WAL still describe every epoch — and, like a failure to map or install
// the file, turns the dataset back to heap folds (service.CheckpointFailed)
// until the next run past the log threshold writes one that installs. The
// mapped file is verified and installed in the background (install), off
// the update path; until then, and for good if that fails, the previous
// base serves. Every version is built on one file
// or the other, never on a mix, and a restart maps the new one. A graceful
// stop's checkpoint is only written.
func (st *store) checkpoint(reason service.CheckpointReason) {
	start := time.Now()
	exported, serr := st.svc.ExportIndex(st.opts.name)
	var err error
	if serr != nil {
		err = serr
	} else {
		err = persist.WriteIndexAtomic(st.fsys, st.opts.index, exported)
	}
	if err != nil {
		st.logger.Warn("checkpoint failed; keeping the previous one and the whole WAL", obs.F("err", err))
		epoch := int64(math.MaxInt64) // no export: whatever file serves is behind
		if exported != nil {
			epoch = exported.BaseEpoch
		}
		st.svc.CheckpointFailed(st.opts.name, epoch)
		return
	}
	st.legacyLog.Store(0)
	pruned := 0
	if rem := st.wal.Pending(); len(rem) > 0 && rem[0].Epoch <= exported.BaseEpoch {
		pruned = min(len(rem), int(exported.BaseEpoch-rem[0].Epoch)+1)
	}
	if err := st.wal.Prune(exported.BaseEpoch); err != nil {
		// The covered entries are skipped by epoch at the next startup.
		st.logger.Warn("WAL prune after checkpoint failed; entries dedupe at restart", obs.F("err", err))
		pruned = 0
	}
	if reason != service.CheckpointShutdown {
		if region, err := st.fsys.Map(st.opts.index); err != nil {
			st.logger.Warn("checkpoint written but not mapped; serving the previous base", obs.F("err", err))
			st.svc.CheckpointFailed(st.opts.name, exported.BaseEpoch)
		} else {
			st.installing.Add(1)
			st.installs.Add(1)
			go st.install(region, exported.BaseEpoch)
		}
	}
	st.svc.ObserveCheckpoint(reason, time.Since(start))
	var bytes int64
	if info, err := st.fsys.Stat(st.opts.index); err == nil {
		bytes = info.Size()
	}
	st.logger.Info("checkpointed index", obs.F("reason", string(reason)),
		obs.F("epoch", exported.BaseEpoch), obs.F("bytes", bytes), obs.F("walPruned", pruned),
		obs.F("walDepth", st.wal.Depth()), obs.F("durMs", float64(time.Since(start).Nanoseconds())/1e6),
		obs.F("path", st.opts.index))
}

// install parses the mapped checkpoint at epoch — CRC-checked, its postings
// verified against its walks as at startup — and makes it the dataset's
// base (service.Rebase).
func (st *store) install(region *mmapio.Region, epoch int64) {
	defer st.installs.Done()
	defer st.installing.Add(-1)
	start := time.Now()
	mi, err := serialize.OpenRegion(region)
	if err == nil {
		err = st.svc.Rebase(st.opts.name, mi)
	}
	if err != nil {
		st.logger.Warn("checkpoint written but not installed; serving the previous base", obs.F("epoch", epoch), obs.F("err", err))
		st.svc.CheckpointFailed(st.opts.name, epoch)
		return
	}
	st.logger.Info("installed checkpoint as the base", obs.F("epoch", epoch),
		obs.F("durMs", float64(time.Since(start).Nanoseconds())/1e6))
}

// Close is the graceful stop: the appliers end (a repair in flight is
// abandoned; its batches stay in the WAL), and whatever the log holds up
// to the visible epoch — WAL entries and a loaded file's own log section
// alike — is folded into a final checkpoint, so the next start has nothing
// to replay. -compact-log 0 leaves the log alone here too.
func (st *store) Close() {
	st.svc.Close()
	st.installs.Wait()
	if st.opts.compact > 0 && st.logDepth() > 0 {
		st.checkpoint(service.CheckpointShutdown)
	}
	_ = st.wal.Close()
}
