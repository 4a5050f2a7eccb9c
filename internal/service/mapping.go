package service

import (
	"fmt"
	"sync/atomic"

	"ovm/internal/dynamic"
	"ovm/internal/serialize"
)

// A dataset registered with AddMapped is served from an index file: its
// arrays alias the file's mapping, and its versions hold the mapping open.
// With checkpoints on, the file is also the walk sets' only fold. While
// they succeed, a repair keeps its overlay beside the mapped base however
// large it grows. The
// file's owner checkpoints the dataset — ExportIndex, written out — once
// OverlayOutgrown says so, and installs the file it wrote with Rebase. From
// then on the dataset's versions alias the new file plus the overlay of
// what changed after it, and the old mapping closes once nothing reads it.
// A checkpoint that is not written, mapped or installed (CheckpointFailed)
// turns the dataset back to heap folds until one installs, so a failing
// disk bounds the overlays as a service without checkpoints does.

// mapping is an index file mapping shared by the dataset versions built on
// it. Every holder takes one reference: the registry for the visible
// version, a request for the version it reads, an update for the version it
// builds, a computation for the version it runs on, an anchor for the
// version it exported. The last release closes the file. Nothing but a
// Dataset aliases a mapping, so the count is exact.
type mapping struct {
	mi           *serialize.MappedIndex
	epoch        int64       // the file's base epoch
	checkpointed bool        // the owner checkpoints the dataset and installs each checkpoint
	stalled      atomic.Bool // a later checkpoint failed: repairs fold on the heap
	refs         atomic.Int64
	open         *atomic.Int64 // the service's open-mappings gauge
}

// newMapping wraps mi with one reference, the caller's.
func (s *Service) newMapping(mi *serialize.MappedIndex, checkpointed bool) *mapping {
	m := &mapping{mi: mi, epoch: mi.Index.BaseEpoch, checkpointed: checkpointed, open: &s.mappingsOpen}
	m.refs.Store(1)
	s.mappingsOpen.Add(1)
	return m
}

func (m *mapping) acquire() {
	if m != nil {
		m.refs.Add(1)
	}
}

func (m *mapping) release() {
	if m != nil && m.refs.Add(-1) == 0 {
		_ = m.mi.Close()
		m.open.Add(-1)
	}
}

// hold takes a reference on whatever file ds aliases, for as long as the
// caller reads it; release returns it. Both are no-ops for a dataset that
// owns its arrays.
func (ds *Dataset) hold()    { ds.file.acquire() }
func (ds *Dataset) release() { ds.file.release() }

// checkpointed reports whether ds's file is checkpointed by its owner.
func (ds *Dataset) checkpointed() bool { return ds.file != nil && ds.file.checkpointed }

// foldsByCheckpoint reports whether ds's walk sets fold only by checkpoint:
// the file is checkpointed and no checkpoint on it has failed.
func (ds *Dataset) foldsByCheckpoint() bool { return ds.checkpointed() && !ds.file.stalled.Load() }

// CheckpointFailed tells a checkpointed dataset that its checkpoint at
// epoch was not written, mapped or installed. Unless the dataset already
// serves a file at that epoch or later (a later checkpoint installed first),
// its repairs fold outgrown overlays into heap bases and OverlayOutgrown
// reports false until a checkpoint installs, so the overlays stay bounded
// and only the log bound asks for the next try.
func (s *Service) CheckpointFailed(name string, epoch int64) {
	ds, serr := s.dataset(name)
	if serr != nil {
		return
	}
	defer ds.release()
	if ds.checkpointed() && ds.file.epoch < epoch {
		ds.file.stalled.Store(true)
	}
}

// anchor is what a checkpoint is rebased from: the version ExportIndex
// captured (held), and the batches swapped in on top of it since.
type anchor struct {
	at      *Dataset
	applied []dynamic.Batch
}

// setAnchor makes ds, just exported, the dataset's anchor, replacing (and
// releasing) the previous one.
func (s *Service) setAnchor(ds *Dataset) {
	ds.hold()
	s.mu.Lock()
	prev := s.anchors[ds.name]
	s.anchors[ds.name] = &anchor{at: ds}
	s.mu.Unlock()
	if prev != nil {
		prev.at.release()
	}
}

// AddMapped registers a mapped index file under name, like AddIndex, and
// hands mi to the service: it is closed once no version of the dataset and
// no request reads it any more (at once if registration fails). With
// checkpoints, the file is the dataset's fold, as described above: the
// caller checkpoints when OverlayOutgrown reports true and installs each
// checkpoint with Rebase. Without, repairs fold outgrown overlays into heap
// bases, as they do for AddIndex.
func (s *Service) AddMapped(name string, mi *serialize.MappedIndex, checkpoints bool) error {
	return s.add(name, mi.Index, s.newMapping(mi, checkpoints))
}

// Rebase installs mi, the dataset's last ExportIndex written to its file,
// as the dataset's base. It restores a version from mi — verified like any
// load — and moves the visible version onto it: the batches swapped in
// since the export are applied again to the checkpoint's system, and each
// walk set keeps the owners they regenerated as an overlay over the
// checkpoint's (walks.Set.Rebase), so no walk is drawn twice and every
// answer stays bit-identical. All of that runs beside the
// updates; only the versions swapped in meanwhile are moved under the
// update lock, at the cost of one repair. The service owns mi from the
// call on; if Rebase fails, mi is closed and the dataset keeps its base.
// Rebase waits for a running update, so never call it from OnUpdate.
func (s *Service) Rebase(name string, mi *serialize.MappedIndex) error {
	file := s.newMapping(mi, true)
	if len(mi.Index.Updates) > 0 {
		file.release()
		return fmt.Errorf("service: checkpoint carries %d logged batches", len(mi.Index.Updates))
	}
	cur, serr := s.restore(name, mi.Index, file)
	if serr != nil {
		return serr
	}
	defer cur.release()
	// A version and the batches behind it, read together (swapDataset
	// changes both at once). Elements of a.applied already appended are
	// never written again, so the prefix stays valid while updates append.
	s.mu.Lock()
	a, vis := s.anchors[name], s.ds[name]
	var done []dynamic.Batch
	if a != nil {
		done = a.applied
		vis.hold()
	}
	s.mu.Unlock()
	if a == nil || a.at.epoch != cur.epoch {
		return fmt.Errorf("service: checkpoint is at epoch %d, not that of dataset %q's last export", cur.epoch, name)
	}
	defer vis.release()
	if len(cur.walks) != len(vis.walks) {
		return fmt.Errorf("service: checkpoint has %d walk sets, the dataset %d", len(cur.walks), len(vis.walks))
	}
	moved, err := s.rebase(cur, a.at, vis, done)
	if err != nil {
		return err
	}
	defer moved.release()
	s.updMu.Lock()
	defer s.updMu.Unlock()
	s.mu.Lock()
	current := s.anchors[name] == a
	if current {
		delete(s.anchors, name)
	}
	s.mu.Unlock()
	if !current {
		return fmt.Errorf("service: a later export of dataset %q replaced the one at epoch %d", name, cur.epoch)
	}
	defer a.at.release()
	// Only what was swapped in since vis is left to move, from vis's move.
	latest, serr := s.dataset(name)
	if serr != nil {
		return serr
	}
	defer latest.release()
	next, err := s.rebase(moved, vis, latest, a.applied[len(done):])
	if err != nil {
		return err
	}
	s.swapDataset(name, next, nil)
	return nil
}

// rebase returns vis — derived from at by the applied batches — moved onto
// base, which holds at's state in other storage; held, on base's file.
func (s *Service) rebase(base, at, vis *Dataset, applied []dynamic.Batch) (*Dataset, error) {
	sys, _, err := dynamic.ReplaySystem(base.sys, applied)
	if err != nil {
		return nil, err
	}
	next := &Dataset{
		name:      vis.name,
		sys:       sys,
		epoch:     vis.epoch,
		baseEpoch: base.baseEpoch,
		memo:      newLRUCache(epochMemoBytes),
		file:      base.file,
	}
	for i, w := range vis.walks {
		moved := *w
		moved.set = w.set.Rebase(base.walks[i].set, at.walks[i].set)
		next.walks = append(next.walks, &moved)
	}
	next.hold()
	return next, nil
}

// OverlayOutgrown reports whether one of the visible version's walk sets
// holds an overlay past its share while only a checkpoint folds it: what a
// checkpointed dataset's owner checkpoints on.
func (s *Service) OverlayOutgrown(name string) bool {
	ds, serr := s.dataset(name)
	if serr != nil {
		return false
	}
	defer ds.release()
	if !ds.foldsByCheckpoint() {
		return false
	}
	for _, a := range ds.walks {
		if a.set.OverlayFull() {
			return true
		}
	}
	return false
}
