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
// HTTP layer's byte bound (maxBodyBytes) it keeps one request from holding
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

// UpdateResponse reports the post-update dataset version and how much of
// the precomputed index the incremental repair had to regenerate. An
// async-accepted response carries Accepted=true, the PROMISED epoch, and
// the queue depth; the repair stats stay zero (the repair has not run
// yet — pass Epoch as a query's minEpoch to read your write).
type UpdateResponse struct {
	// Epoch is the dataset version after this batch; every query response
	// carries the epoch it was computed at. With async updates this is the
	// epoch the batch WILL become visible at.
	Epoch int64 `json:"epoch"`
	// Accepted is true when the batch was durably queued for background
	// application rather than applied inline.
	Accepted bool `json:"accepted,omitempty"`
	// QueueDepth is the accepted-but-unapplied batch count after this
	// enqueue (async only).
	QueueDepth int `json:"queueDepth,omitempty"`
	// NodesTouched counts the distinct nodes named by the batch's change
	// set (mutated in-neighborhoods, stubbornness, or opinions).
	NodesTouched int `json:"nodesTouched"`
	// WalksInvalidated / WalksTotal cover the sketch and RW walk
	// artifacts.
	WalksInvalidated int     `json:"walksInvalidated"`
	WalksTotal       int     `json:"walksTotal"`
	ElapsedMs        float64 `json:"elapsedMs"`
}

// ApplyUpdates applies one mutation batch to a registered dataset: the
// system is delta-applied and every precomputed artifact is incrementally
// repaired (regenerating only invalidated samples, each from its original
// substream), so post-update answers are byte-identical to a full rebuild
// of the mutated system at the same seed.
//
// The swap is atomic and versioned: in-flight queries finish on the
// pre-update dataset (and report its epoch); queries arriving after the
// swap see the new epoch. Response-cache entries are scoped per (dataset,
// epoch) — the epoch is part of every cache key — so stale answers can
// never be served after an update. Concurrent ApplyUpdates calls are
// serialized; each successful batch bumps the epoch by exactly one. When a
// persistence hook is configured (Config.OnUpdate), it runs before the
// swap, so a crash never leaves the daemon ahead of its log.
// Update is the transport-facing dispatcher: with Config.AsyncUpdates it
// enqueues (EnqueueUpdates) and returns the accepted/target-epoch
// response immediately; otherwise it applies inline (ApplyUpdates).
func (s *Service) Update(req *UpdateRequest) (*UpdateResponse, *Error) {
	if s.cfg.AsyncUpdates {
		return s.EnqueueUpdates(req)
	}
	return s.ApplyUpdates(req)
}

func (s *Service) ApplyUpdates(req *UpdateRequest) (*UpdateResponse, *Error) {
	if s.cfg.AsyncUpdates {
		// Preserve the blocking contract on an async service: enqueue, then
		// wait for the promised epoch to become visible. The repair stats
		// are not reconstructed — callers that need them run synchronously.
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
	start := time.Now()
	span := obs.NewSpan(endpointUpdates)
	if len(req.Ops) > maxUpdateOps {
		serr := badRequestf("update batch has %d ops, limit is %d: split the mutation into multiple batches", len(req.Ops), maxUpdateOps)
		s.tel.observe(span, endpointUpdates, req.Dataset, "", 0, false, string(serr.Code))
		return nil, serr
	}
	s.updMu.Lock()
	defer s.updMu.Unlock()
	ds, serr := s.dataset(req.Dataset)
	if serr != nil {
		s.tel.observe(span, endpointUpdates, req.Dataset, "", 0, false, string(serr.Code))
		return nil, serr
	}
	defer ds.release()
	next, resp, serr := s.repairDataset(nil, ds, req.Ops, 1, span)
	if serr != nil {
		s.errorCount.Add(1)
		s.tel.observe(span, endpointUpdates, ds.name, "", ds.epoch, false, string(serr.Code))
		return nil, serr
	}
	if err := s.persistUpdate(span, req.Dataset, []dynamic.Batch{req.Ops}, next.epoch); err != nil {
		next.release()
		s.errorCount.Add(1)
		serr := internalErr(err)
		s.tel.observe(span, endpointUpdates, ds.name, "", ds.epoch, false, string(serr.Code))
		return nil, serr
	}
	swap := time.Now()
	s.swapDataset(req.Dataset, next, []dynamic.Batch{req.Ops})
	span.Add("swap", time.Since(swap))
	s.updates.Add(1)
	resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1000
	s.tel.observe(span, endpointUpdates, next.name, "", next.epoch, false, "")
	return resp, nil
}

// persistUpdate runs Config.OnUpdate as the span's "persist" stage. Both
// update paths call it under updMu, just before the swap. A checkpoint the
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

var checkpointReasons = [...]CheckpointReason{CheckpointLog, CheckpointOverlay, CheckpointShutdown}

// ObserveCheckpoint records one completed checkpoint of an index file (the
// dataset exported, written out and the update log pruned behind it) in
// ovmd_checkpoints_total and the "checkpoint" stage. The owner of the file
// calls it: from inside OnUpdate, or once no update can run any more.
func (s *Service) ObserveCheckpoint(reason CheckpointReason, d time.Duration) {
	for i, r := range checkpointReasons {
		if r == reason {
			s.checkpoints[i].Add(1)
		}
	}
	s.checkpointNs.Add(d.Nanoseconds())
	s.tel.stageHist.With("checkpoint").Observe(d)
}

func (s *Service) checkpointTotal() int64 {
	var n int64
	for i := range s.checkpoints {
		n += s.checkpoints[i].Load()
	}
	return n
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
		storeWalks(idx, a.draw, a.target, a.horizon, a.set)
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
// async applier threads its pipeline context through so shutdown can
// abandon a background repair. bump is the epoch increment — 1 for a
// plain batch, len(run.Raw) when batch is a coalesced super-batch that
// stands in for several promised epochs.
func (s *Service) repairDataset(ctx context.Context, ds *Dataset, batch dynamic.Batch, bump int, span *obs.Span) (*Dataset, *UpdateResponse, *Error) {
	apply := time.Now()
	newSys, cs, err := dynamic.ApplySystem(ds.sys, batch)
	span.Add("apply", time.Since(apply))
	if err != nil {
		// Everything ApplySystem rejects is caused by the request content
		// (schema violations, out-of-range ids, removing missing edges).
		return nil, nil, badRequestf("%v", err)
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
		memo:      newLRUCache(epochMemoBytes),
		file:      ds.file,
	}
	resp := &UpdateResponse{Epoch: next.epoch, NodesTouched: cs.NumTouched()}
	// The alias sampler of a mutated graph costs O(m): one per target graph,
	// shared by every artifact over it.
	grounds := make(map[int]*walks.Ground)
	for _, a := range ds.walks {
		gr := grounds[a.target]
		if gr == nil {
			if gr, err = walks.NewGround(newSys.Candidate(a.target)); err != nil {
				return nil, nil, internalErr(err)
			}
			grounds[a.target] = gr
		}
		repair := a.draw.Repair
		if ds.foldsByCheckpoint() {
			repair = a.draw.RepairOverlay
		}
		set, st, err := repair(ctx, gr, a.set, cs.WalkMask(n, a.target), par)
		if err != nil {
			return nil, nil, internalErr(err)
		}
		resp.WalksInvalidated += st.WalksInvalidated
		resp.WalksTotal += st.Walks
		next.walks = append(next.walks, &walkArtifact{key: a.key, draw: a.draw, target: a.target, horizon: a.horizon, set: set})
	}
	next.hold()
	return next, resp, nil
}
