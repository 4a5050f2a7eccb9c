package service

import (
	"context"
	"sync"
	"time"

	"ovm/internal/dynamic"
	"ovm/internal/graph"
	"ovm/internal/obs"
)

// The async update pipeline: POST /updates appends the batch to a durable
// queue and returns immediately with the epoch the batch WILL become
// visible at; a per-dataset background applier coalesces the queue and
// runs the incremental repair off the request path, so reads keep serving
// epoch N at full throughput while N+1 builds.
//
// The epoch promise is the load-bearing contract: the accepted response
// names a target epoch, and that epoch must materialize with exactly that
// batch's effect. Three mechanisms uphold it:
//
//   - Enqueue-time validation: the batch is checked against the system
//     shape (Batch.Validate) and against the graph-as-of-the-target-epoch
//     (the visible graph overlaid with every queued edge op), so a
//     remove_edge of a never-existing edge is rejected at accept time,
//     not discovered mid-repair after the epoch was promised.
//   - Durability before acknowledgement: when Config.OnEnqueue is set
//     (ovmd appends to a fsync'd WAL), the batch is persisted before the
//     accepted response is sent; a crash replays the queue and lands on
//     the same epochs.
//   - Failure containment: a queued batch that still fails to apply
//     (e.g. a remove that zeroes a node's in-weight) consumes its epoch
//     as a logged no-op instead of shifting every later promise.
type updatePipeline struct {
	s    *Service
	name string

	mu    sync.Mutex
	queue []queuedBatch
	// assigned is the last epoch promised to a caller; the next accepted
	// batch becomes assigned+1. It only ever grows (a batch that fails to
	// apply consumes its epoch as a no-op).
	assigned int64
	// pendingEdges overlays the queued-but-unapplied edge ops on the
	// visible graph for enqueue-time validation: key (from,to), value =
	// whether the edge exists after the queued ops. Reset when the queue
	// drains (the visible graph then subsumes it).
	pendingEdges map[[2]int32]bool
	closed       bool

	wake   chan struct{} // cap 1: enqueue nudges the applier
	done   chan struct{} // closed when the applier goroutine exits
	ctx    context.Context
	cancel context.CancelFunc
}

type queuedBatch struct {
	ops        dynamic.Batch
	epoch      int64
	acceptedAt time.Time
}

// pipelineFor returns the dataset's pipeline, starting the applier on
// first use. baseEpoch seeds the promise counter and must be the
// dataset's visible epoch (creation happens before any batch is queued,
// so visible == last applied).
func (s *Service) pipelineFor(name string, baseEpoch int64) *updatePipeline {
	s.pipMu.Lock()
	defer s.pipMu.Unlock()
	if p, ok := s.pipelines[name]; ok {
		return p
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &updatePipeline{
		s:            s,
		name:         name,
		assigned:     baseEpoch,
		pendingEdges: make(map[[2]int32]bool),
		wake:         make(chan struct{}, 1),
		done:         make(chan struct{}),
		ctx:          ctx,
		cancel:       cancel,
	}
	s.pipelines[name] = p
	go p.run()
	return p
}

// closePipelines stops every applier and waits for them to exit; queued
// batches stay in the WAL (when one is configured) for the next start.
func (s *Service) closePipelines() {
	s.pipMu.Lock()
	ps := make([]*updatePipeline, 0, len(s.pipelines))
	for _, p := range s.pipelines {
		ps = append(ps, p)
	}
	s.pipMu.Unlock()
	for _, p := range ps {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		p.cancel()
	}
	for _, p := range ps {
		<-p.done
	}
}

// EnqueueUpdates accepts one mutation batch for asynchronous application:
// it validates the batch against the state it will apply to, durably logs
// it (Config.OnEnqueue), and returns the epoch the batch will become
// visible at — without waiting for the repair. Queries see the new epoch
// once the background applier swaps it in; a caller that needs
// read-your-writes passes the returned epoch as the query's minEpoch.
func (s *Service) EnqueueUpdates(req *UpdateRequest) (*UpdateResponse, *Error) {
	start := time.Now()
	if len(req.Ops) > maxUpdateOps {
		serr := badRequestf("update batch has %d ops, limit is %d: split the mutation into multiple batches", len(req.Ops), maxUpdateOps)
		s.observeAccept(req.Dataset, start, 0, serr)
		return nil, serr
	}
	ds, serr := s.dataset(req.Dataset)
	if serr != nil {
		s.observeAccept(req.Dataset, start, 0, serr)
		return nil, serr
	}
	defer ds.release()
	if err := req.Ops.Validate(ds.sys.N(), ds.sys.R()); err != nil {
		serr := badRequestf("%v", err)
		s.observeAccept(req.Dataset, start, ds.epoch, serr)
		return nil, serr
	}
	p := s.pipelineFor(req.Dataset, ds.epoch)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		serr := &Error{Code: CodeOverloaded, Message: "service shutting down", RetryAfter: 1}
		s.observeAccept(req.Dataset, start, ds.epoch, serr)
		return nil, serr
	}
	if serr := p.validateStatefulLocked(ds, req.Ops); serr != nil {
		p.mu.Unlock()
		s.observeAccept(req.Dataset, start, ds.epoch, serr)
		return nil, serr
	}
	epoch := p.assigned + 1
	if s.cfg.OnEnqueue != nil {
		persist := time.Now()
		err := s.cfg.OnEnqueue(req.Dataset, req.Ops, epoch)
		s.tel.stageHist.With("persist").Observe(time.Since(persist))
		if err != nil {
			p.mu.Unlock()
			serr := internalErr(err)
			s.observeAccept(req.Dataset, start, ds.epoch, serr)
			return nil, serr
		}
	}
	p.assigned = epoch
	p.overlayLocked(req.Ops)
	p.queue = append(p.queue, queuedBatch{ops: req.Ops, epoch: epoch, acceptedAt: start})
	depth := len(p.queue)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
	s.observeAccept(req.Dataset, start, epoch, nil)
	return &UpdateResponse{
		Accepted:   true,
		Epoch:      epoch,
		QueueDepth: depth,
		ElapsedMs:  float64(time.Since(start).Microseconds()) / 1000,
	}, nil
}

// observeAccept records the accept-path latency under the updates
// endpoint (the applier separately observes the apply spans) and logs the
// acceptance. Errors feed the error counter exactly like the sync path.
func (s *Service) observeAccept(dataset string, start time.Time, epoch int64, serr *Error) {
	dur := time.Since(start)
	s.tel.reqHist.With(endpointUpdates, dataset, "").Observe(dur)
	if serr != nil {
		s.errorCount.Add(1)
		s.tel.logger.Warn("update rejected",
			obs.F("dataset", dataset), obs.F("error", string(serr.Code)), obs.F("msg", serr.Message))
		return
	}
	s.tel.logger.Info("update accepted",
		obs.F("dataset", dataset), obs.F("epoch", epoch),
		obs.F("durMs", float64(dur.Nanoseconds())/1e6))
}

// validateStatefulLocked rejects batches whose stateful preconditions
// cannot hold at their target epoch: every remove_edge must name an edge
// that exists in the visible graph overlaid with the queued edge ops
// (and this batch's earlier ops). Caller holds p.mu.
func (p *updatePipeline) validateStatefulLocked(ds *Dataset, b dynamic.Batch) *Error {
	g := ds.sys.Candidate(0).G
	var local map[[2]int32]bool
	exists := func(from, to int32) bool {
		k := [2]int32{from, to}
		if v, ok := local[k]; ok {
			return v
		}
		if v, ok := p.pendingEdges[k]; ok {
			return v
		}
		return hasEdge(g, from, to)
	}
	for i, op := range b {
		switch op.Kind {
		case dynamic.OpAddEdge, dynamic.OpSetWeight:
			if local == nil {
				local = make(map[[2]int32]bool)
			}
			local[[2]int32{op.From, op.To}] = true
		case dynamic.OpRemoveEdge:
			if !exists(op.From, op.To) {
				return badRequestf("ops[%d]: remove_edge %d->%d: edge will not exist at the target epoch", i, op.From, op.To)
			}
			if local == nil {
				local = make(map[[2]int32]bool)
			}
			local[[2]int32{op.From, op.To}] = false
		}
	}
	return nil
}

// overlayLocked folds an accepted batch's edge ops into pendingEdges.
// Caller holds p.mu.
func (p *updatePipeline) overlayLocked(b dynamic.Batch) {
	for _, op := range b {
		switch op.Kind {
		case dynamic.OpAddEdge, dynamic.OpSetWeight:
			p.pendingEdges[[2]int32{op.From, op.To}] = true
		case dynamic.OpRemoveEdge:
			p.pendingEdges[[2]int32{op.From, op.To}] = false
		}
	}
}

func hasEdge(g *graph.Graph, from, to int32) bool {
	srcs, _ := g.InNeighbors(to)
	for _, s := range srcs {
		if s == from {
			return true
		}
	}
	return false
}

// seedQueued preloads the pipeline with batches recovered from a WAL:
// they keep their originally promised epochs (which must continue the
// dataset's visible epoch contiguously) and drain through the same
// applier as live traffic. ovmd calls this once at startup, before
// serving.
func (s *Service) SeedQueued(name string, batches []dynamic.Batch, firstEpoch int64) *Error {
	ds, serr := s.dataset(name)
	if serr != nil {
		return serr
	}
	defer ds.release()
	if len(batches) == 0 {
		return nil
	}
	if firstEpoch != ds.epoch+1 {
		return badRequestf("queued batches start at epoch %d, dataset is at %d", firstEpoch, ds.epoch)
	}
	p := s.pipelineFor(name, ds.epoch)
	p.mu.Lock()
	now := time.Now()
	for i, b := range batches {
		p.assigned++
		p.overlayLocked(b)
		p.queue = append(p.queue, queuedBatch{ops: b, epoch: firstEpoch + int64(i), acceptedAt: now})
	}
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
	return nil
}

// WaitIdle blocks until every batch accepted for name so far is visible
// (or ctx expires). A dataset with no pipeline is already idle.
func (s *Service) WaitIdle(ctx context.Context, name string) *Error {
	s.pipMu.Lock()
	p := s.pipelines[name]
	s.pipMu.Unlock()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	target := p.assigned
	p.mu.Unlock()
	ds, serr := s.awaitEpoch(ctx, name, target)
	if serr == nil {
		ds.release()
	}
	return serr
}

// QueueDepth reports the queued-but-unapplied batch count for name.
func (s *Service) QueueDepth(name string) int {
	s.pipMu.Lock()
	p := s.pipelines[name]
	s.pipMu.Unlock()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// totalQueueDepth sums the queued-but-unapplied batches across datasets.
func (s *Service) totalQueueDepth() int {
	s.pipMu.Lock()
	ps := make([]*updatePipeline, 0, len(s.pipelines))
	for _, p := range s.pipelines {
		ps = append(ps, p)
	}
	s.pipMu.Unlock()
	n := 0
	for _, p := range ps {
		p.mu.Lock()
		n += len(p.queue)
		p.mu.Unlock()
	}
	return n
}

// UpdateLagSnapshot exposes the accepted-to-visible lag histogram
// (benchmarks read p50/p95 from it).
func (s *Service) UpdateLagSnapshot() obs.HistSnapshot {
	return s.tel.lagHist.With().Snapshot()
}

// datasetAtEpoch is the query-path dataset fetch: min <= 0 (or already
// reached) returns the current snapshot with zero extra cost; otherwise
// it blocks until the async applier publishes the requested epoch. The
// dataset comes held, as from dataset.
func (s *Service) datasetAtEpoch(ctx context.Context, name string, min int64) (*Dataset, *Error) {
	ds, serr := s.dataset(name)
	if serr != nil || min <= ds.epoch {
		return ds, serr
	}
	ds.release()
	return s.awaitEpoch(ctx, name, min)
}

// awaitEpoch returns the dataset, held, once its visible epoch reaches min,
// blocking on the swap-notification channel. min <= 0 returns the current
// snapshot immediately.
func (s *Service) awaitEpoch(ctx context.Context, name string, min int64) (*Dataset, *Error) {
	for {
		s.mu.RLock()
		ds, ok := s.ds[name]
		ch := s.epochCh
		if ok && ds.epoch >= min {
			ds.hold()
		}
		s.mu.RUnlock()
		if !ok {
			return s.dataset(name) // assembles the typed not-found error
		}
		if ds.epoch >= min {
			return ds, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, asError(ctx.Err())
		}
	}
}

// swapDataset publishes next as the visible snapshot and wakes every
// epoch waiter. Both the sync and async update paths go through here, so
// minEpoch waits work in either mode. The caller's hold on next becomes the
// registry's, and the registry's hold on the version it replaces is
// released. applied are the batches next derived from the visible version
// by: they are noted on the dataset's anchor in the same critical section,
// so a reader of both sees a version and exactly the batches behind it.
// The update paths call it under updMu.
func (s *Service) swapDataset(name string, next *Dataset, applied []dynamic.Batch) {
	s.mu.Lock()
	if a := s.anchors[name]; a != nil {
		a.applied = append(a.applied, applied...)
	}
	prev := s.ds[name]
	s.ds[name] = next
	ch := s.epochCh
	s.epochCh = make(chan struct{})
	s.mu.Unlock()
	close(ch)
	if prev != nil {
		prev.release()
	}
}

// run is the applier goroutine: it sleeps until an enqueue nudges it,
// then drains the queue in coalesced runs.
func (p *updatePipeline) run() {
	defer close(p.done)
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-p.wake:
		}
		if !p.drain() {
			return
		}
	}
}

// drain pops and applies everything queued, re-checking for batches that
// arrived while a run was repairing. Returns false when the pipeline is
// shutting down.
func (p *updatePipeline) drain() bool {
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			// Queue empty and the applier idle: the visible graph now
			// reflects every accepted edge op, so the overlay is subsumed.
			p.pendingEdges = make(map[[2]int32]bool)
			p.mu.Unlock()
			return true
		}
		popped := p.queue
		p.queue = nil
		p.mu.Unlock()

		batches := make([]dynamic.Batch, len(popped))
		for i, q := range popped {
			batches[i] = q.ops
		}
		runs := dynamic.Coalesce(batches, maxUpdateOps)
		idx := 0
		for _, run := range runs {
			raw := popped[idx : idx+len(run.Raw)]
			if err := p.s.applyRun(p, run, raw); err != nil {
				// Persist failure (or shutdown): everything not yet applied
				// goes back to the queue front — the WAL still holds it, so
				// a crash here is recovered identically — and the applier
				// retries after a pause.
				p.requeueFront(popped[idx:])
				if p.ctx.Err() != nil {
					return false
				}
				select {
				case <-p.ctx.Done():
					return false
				case <-time.After(time.Second):
				}
				break
			}
			idx += len(run.Raw)
			if p.ctx.Err() != nil {
				p.requeueFront(popped[idx:])
				return false
			}
		}
	}
}

func (p *updatePipeline) requeueFront(qs []queuedBatch) {
	if len(qs) == 0 {
		return
	}
	p.mu.Lock()
	p.queue = append(append(make([]queuedBatch, 0, len(qs)+len(p.queue)), qs...), p.queue...)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// applyRun applies one coalesced run: repair on the super-batch, hand the
// RAW batches to the persist hook (the log stays a faithful history;
// coalescing is a runtime optimization, never a storage format), swap,
// notify epoch waiters, and record the accepted-to-visible lag of every
// raw batch.
//
// A non-nil return means "retry later" (persistence failed or the
// pipeline is shutting down); the caller requeues. Apply failures never
// return an error: a batch the repair rejects consumes its promised epoch
// as a logged no-op, so later promises stay intact.
func (s *Service) applyRun(p *updatePipeline, run dynamic.CoalescedRun, raw []queuedBatch) error {
	s.updMu.Lock()
	defer s.updMu.Unlock()
	if err := p.ctx.Err(); err != nil {
		return err
	}
	span := obs.NewSpan(endpointUpdates)
	// The pipeline stage is the queue wait: accept of the oldest batch in
	// the run to the moment the repair starts.
	span.Add("pipeline", time.Since(raw[0].acceptedAt))
	ds, serr := s.dataset(p.name)
	if serr != nil {
		return nil // dataset dropped out from under the pipeline; drop the run
	}
	defer ds.release()
	applied := []dynamic.Batch{run.Super}
	next, _, serr := s.repairDataset(p.ctx, ds, run.Super, len(raw), span)
	if serr != nil {
		if err := p.ctx.Err(); err != nil {
			return err
		}
		// The merged super-batch failed. Fall back to applying the raw
		// batches one at a time so one poisoned batch cannot take its
		// neighbors down with it.
		applied = applied[:0]
		next = ds
		for _, q := range raw {
			n2, _, serr := s.repairDataset(p.ctx, next, q.ops, 1, span)
			if serr == nil {
				applied = append(applied, q.ops)
			} else {
				if err := p.ctx.Err(); err != nil {
					if next != ds {
						next.release()
					}
					return err
				}
				s.errorCount.Add(1)
				s.tel.logger.Warn("queued update failed; epoch consumed as no-op",
					obs.F("dataset", p.name), obs.F("epoch", q.epoch),
					obs.F("error", serr.Message))
				n2 = next.noopSuccessor()
			}
			if next != ds {
				next.release()
			}
			next = n2
		}
	} else if elided := totalOps(raw) - len(run.Super); elided > 0 {
		s.coalescedOps.Add(int64(elided))
	}
	if err := s.persistUpdate(span, p.name, rawBatches(raw), next.epoch); err != nil {
		next.release()
		s.errorCount.Add(1)
		s.tel.logger.Warn("update persistence failed; will retry",
			obs.F("dataset", p.name), obs.F("error", err.Error()))
		return err
	}
	swap := time.Now()
	s.swapDataset(p.name, next, applied)
	span.Add("swap", time.Since(swap))
	s.updates.Add(int64(len(raw)))
	now := time.Now()
	lag := s.tel.lagHist.With()
	for _, q := range raw {
		lag.ObserveNs(now.Sub(q.acceptedAt).Nanoseconds())
	}
	s.tel.observe(span, endpointUpdates, p.name, "", next.epoch, false, "")
	return nil
}

// noopSuccessor is the epoch bump a failed queued batch consumes: same
// system, same artifacts, fresh epoch memo (every epoch starts with its
// own, so successors never share one). It comes held, like a repair's.
func (ds *Dataset) noopSuccessor() *Dataset {
	ds.hold()
	return &Dataset{
		name:      ds.name,
		sys:       ds.sys,
		epoch:     ds.epoch + 1,
		baseEpoch: ds.baseEpoch,
		walks:     ds.walks,
		memo:      newLRUCache(epochMemoBytes),
		file:      ds.file,
	}
}

func rawBatches(raw []queuedBatch) []dynamic.Batch {
	out := make([]dynamic.Batch, len(raw))
	for i, q := range raw {
		out[i] = q.ops
	}
	return out
}

func totalOps(raw []queuedBatch) int {
	n := 0
	for _, q := range raw {
		n += len(q.ops)
	}
	return n
}
