package service

import (
	"context"
	"time"

	"ovm/internal/dynamic"
	"ovm/internal/obs"
	"ovm/internal/serialize"
	"ovm/internal/walks"
)

// maxUpdateOps bounds a single update batch's op count: together with the
// HTTP layer's byte bound (maxBodyBytes) it keeps one batch from holding
// the update lock — and the incremental repair — for an unbounded time.
// Larger mutations must be split into multiple batches (each is atomic and
// bumps the epoch by one).
const maxUpdateOps = 65536

// UpdateRequest applies one atomic mutation batch to a dataset.
type UpdateRequest struct {
	Dataset string `json:"dataset"`
	// Ops is the batch: edge inserts/deletes/re-weights and internal
	// opinion / stubbornness updates, applied together and renormalized
	// once per touched destination.
	Ops dynamic.Batch `json:"ops"`
}

// UpdateResponse acknowledges an accepted batch: the epoch it was promised
// and the queue depth behind it. The repair has not run yet; pass Epoch as a
// query's minEpoch to read your write. What the repair regenerates is
// counted on /metrics (ovm_dynamic_nodes_touched_total,
// ovm_repair_walks_invalidated_total, ovm_repair_walks_seen_total).
type UpdateResponse struct {
	// Epoch is the dataset version this batch becomes visible at; every
	// query response carries the epoch it was computed at.
	Epoch int64 `json:"epoch"`
	// Accepted is true: the batch was validated, durably logged
	// (Config.OnEnqueue) and queued for the background applier.
	Accepted bool `json:"accepted,omitempty"`
	// QueueDepth is the accepted-but-unapplied batch count after this
	// enqueue.
	QueueDepth int     `json:"queueDepth,omitempty"`
	ElapsedMs  float64 `json:"elapsedMs"`
}

// ApplyUpdates is EnqueueUpdates that returns only once the promised epoch
// is visible: every precomputed artifact has been incrementally repaired
// (regenerating only invalidated samples, each from its original
// substream), so the answers are byte-identical to a full rebuild of the
// mutated system at the same seed. Each call's batch is its own epoch;
// batches from concurrent callers may share a repair.
func (s *Service) ApplyUpdates(req *UpdateRequest) (*UpdateResponse, *Error) {
	resp, serr := s.EnqueueUpdates(req)
	if serr != nil {
		return nil, serr
	}
	ctx, cancel := s.reqContext(context.Background(), 0)
	defer cancel()
	ds, serr := s.awaitEpoch(ctx, req.Dataset, resp.Epoch)
	if serr != nil {
		return nil, serr
	}
	ds.release()
	return resp, nil
}

// persistUpdate runs Config.OnUpdate as the span's "persist" stage. The
// applier calls it under updMu, just before the swap. A checkpoint the
// hook reports through ObserveCheckpoint while it runs is a stage of its
// own, so its time is taken out of persist's.
func (s *Service) persistUpdate(span *obs.Span, dataset string, batches []dynamic.Batch, epoch int64) error {
	if s.cfg.OnUpdate == nil {
		return nil
	}
	start := time.Now()
	cp := s.checkpointNs.Load()
	err := s.cfg.OnUpdate(dataset, batches, epoch)
	span.Add("persist", time.Since(start)-time.Duration(s.checkpointNs.Load()-cp))
	return err
}

// CheckpointReason says why an index file was checkpointed: the reason
// label of ovmd_checkpoints_total.
type CheckpointReason string

// The checkpoint reasons.
const (
	CheckpointLog      CheckpointReason = "log"      // the update log reached its bound
	CheckpointOverlay  CheckpointReason = "overlay"  // a walk set's overlay outgrew its share
	CheckpointShutdown CheckpointReason = "shutdown" // a graceful stop
)

// ObserveCheckpoint records one completed checkpoint of an index file (the
// dataset exported, written out and the update log pruned behind it) in
// ovmd_checkpoints_total and the "checkpoint" stage. The owner of the file
// calls it: from inside OnUpdate, or once no update can run any more.
func (s *Service) ObserveCheckpoint(reason CheckpointReason, d time.Duration) {
	s.checkpoints[reason].Inc()
	s.checkpointNs.Add(d.Nanoseconds())
	s.tel.stageHist.With("checkpoint").Observe(d)
}

// ExportIndex snapshots a dataset's current state — the mutated system and
// its incrementally repaired artifacts — as a self-contained index with an
// empty update log and BaseEpoch set to the dataset's epoch. Reloading the
// export resumes at the same epoch with the same bytes; ovmd writes it out
// as the checkpoint that lets a grown update log be pruned. The walk
// artifacts are the live sets, which the writer streams, and the export
// aliases the dataset's storage: write it while that version cannot be
// retired (from OnUpdate, or while no update runs). For a dataset with
// checkpoints (AddMapped) the exported version is also what Rebase moves
// the dataset from, once the export is written and mapped.
func (s *Service) ExportIndex(name string) (*serialize.Index, *Error) {
	ds, serr := s.dataset(name)
	if serr != nil {
		return nil, serr
	}
	defer ds.release()
	if ds.checkpointed() {
		s.setAnchor(ds)
	}
	idx := &serialize.Index{Sys: ds.sys, BaseEpoch: ds.epoch}
	for _, a := range ds.walks {
		storeWalks(idx, a.draw, a.target, a.horizon, a.set, s.cfg.Parallelism)
	}
	return idx, nil
}

// repairDataset applies one batch to a dataset snapshot and incrementally
// repairs every artifact, returning the next (immutable) dataset version,
// held for the caller.
// It holds no service locks: callers pass an immutable snapshot, so repair
// work runs concurrently with query traffic. The span (nil-safe; replay
// passes nil) receives "apply" and "repair" stage timings.
//
// ctx cancels the repair at shard boundaries (nil never cancels); the
// applier threads its pipeline context through so shutdown can abandon a
// background repair. bump is the epoch increment — 1 for a
// plain batch, len(run.Raw) when batch is a coalesced super-batch that
// stands in for several promised epochs.
func (s *Service) repairDataset(ctx context.Context, ds *Dataset, batch dynamic.Batch, bump int, span *obs.Span) (*Dataset, *Error) {
	apply := time.Now()
	newSys, cs, err := dynamic.ApplySystem(ds.sys, batch)
	span.Add("apply", time.Since(apply))
	if err != nil {
		// Everything ApplySystem rejects is caused by the request content
		// (schema violations, out-of-range ids, removing missing edges).
		return nil, badRequestf("%v", err)
	}
	repair := time.Now()
	defer func() { span.Add("repair", time.Since(repair)) }()
	par := s.cfg.Parallelism
	n := newSys.N()
	next := &Dataset{
		name:      ds.name,
		sys:       newSys,
		epoch:     ds.epoch + int64(bump),
		baseEpoch: ds.baseEpoch,
		grounds:   make(map[int]*walks.Ground),
		memo:      newLRUCache(epochMemoBytes),
		file:      ds.file,
	}
	// One Ground per target, shared by every artifact over it: derived from
	// the last repair's, so only the columns the batch changed cost sampler
	// rows; built whole by the first repair after a load.
	for _, a := range ds.walks {
		gr := next.grounds[a.target]
		if gr == nil {
			c := newSys.Candidate(a.target)
			if prev := ds.grounds[a.target]; prev != nil {
				gr, err = prev.Next(c, cs.EdgeTouched)
			} else {
				gr, err = walks.NewGround(c)
			}
			if err != nil {
				return nil, internalErr(err)
			}
			next.grounds[a.target] = gr
		}
		repair := a.draw.Repair
		if ds.foldsByCheckpoint() {
			repair = a.draw.RepairOverlay
		}
		set, _, err := repair(ctx, gr, a.set, cs.WalkMask(n, a.target), par)
		if err != nil {
			return nil, internalErr(err)
		}
		next.walks = append(next.walks, &walkArtifact{key: a.key, draw: a.draw, target: a.target, horizon: a.horizon, set: set})
	}
	next.inherit(ctx, ds, cs, par)
	next.hold()
	return next, nil
}
