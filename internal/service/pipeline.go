package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ovm/internal/dynamic"
	"ovm/internal/graph"
	"ovm/internal/obs"
)

// The update pipeline, the only way an epoch is made: POST /updates
// appends the batch to a durable queue and returns immediately with the
// epoch the batch WILL become visible at; a per-dataset background applier
// coalesces the queue and runs the incremental repair off the request
// path, so reads keep serving epoch N at full throughput while N+1 builds.
//
// The epoch promise is the load-bearing contract: the accepted response
// names a target epoch, and that epoch must materialize with exactly that
// batch's effect. Three mechanisms uphold it:
//
//   - Enqueue-time validation: the batch is checked against the system
//     shape and the finiteness of its column sums (Batch.Validate) and
//     against the graph-as-of-the-target-epoch (the visible graph overlaid
//     with every queued edge op and the self-loops the repair gives emptied
//     columns), so a remove_edge of a never-existing edge is rejected at
//     accept time, not discovered mid-repair after the epoch was promised.
//   - Durability before acknowledgement: when Config.OnEnqueue is set
//     (ovmd appends to a fsync'd WAL), the batch is persisted before the
//     accepted response is sent; a crash replays the queue and lands on
//     the same epochs.
//   - Failure containment: a queued batch that still fails to apply
//     (SeedQueued does not re-validate what a log recovers) consumes its
//     epoch as a logged no-op instead of shifting every later promise.
type updatePipeline struct {
	s    *Service
	name string

	mu    sync.Mutex
	queue []queuedBatch
	// assigned is the last epoch promised to a caller; the next accepted
	// batch becomes assigned+1. It only ever grows (a batch that fails to
	// apply consumes its epoch as a no-op). Written under mu; read without
	// it, so a minEpoch query never waits on an accept's WAL append.
	assigned atomic.Int64
	// depth is len(queue), stored under mu wherever queue changes
	// (setQueue) and read without it, so /stats and the queue-depth gauge
	// never wait on an accept's WAL append either.
	depth atomic.Int64
	// pendingEdges overlays the queued-but-unapplied edge ops on the
	// visible graph for enqueue-time validation: destination → source →
	// whether the edge exists after the queued ops. Reset when the queue
	// drains (the visible graph then subsumes it).
	pendingEdges map[int32]map[int32]bool
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
		pendingEdges: make(map[int32]map[int32]bool),
		wake:         make(chan struct{}, 1),
		done:         make(chan struct{}),
		ctx:          ctx,
		cancel:       cancel,
	}
	p.assigned.Store(baseEpoch)
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
	epoch := p.assigned.Load() + 1
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
	p.assigned.Store(epoch)
	p.overlayLocked(ds, req.Ops)
	p.setQueue(append(p.queue, queuedBatch{ops: req.Ops, epoch: epoch, acceptedAt: start}))
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
// acceptance. A rejected batch counts as an error.
func (s *Service) observeAccept(dataset string, start time.Time, epoch int64, serr *Error) {
	dur := time.Since(start)
	s.tel.reqHist.With(endpointUpdates, dataset, "").Observe(dur)
	if serr != nil {
		s.errorCount.Add(1)
		s.tel.logger.Warn("update rejected", "dataset", dataset, "error", string(serr.Code), "reason", serr.Message)
		return
	}
	s.tel.logger.Info("update accepted", "dataset", dataset, "epoch", epoch, "durMs", float64(dur.Nanoseconds())/1e6)
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
		if v, ok := p.pendingEdges[to][from]; ok {
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

// overlayLocked folds an accepted batch's edge ops into pendingEdges,
// with the repair's rule for a column the batch leaves without in-edges: it
// gets a weight-1 self-loop (graph.ApplyDeltas). Caller holds p.mu.
func (p *updatePipeline) overlayLocked(ds *Dataset, b dynamic.Batch) {
	var touched []int32
	for _, op := range b {
		switch op.Kind {
		case dynamic.OpAddEdge, dynamic.OpSetWeight, dynamic.OpRemoveEdge:
			col := p.pendingEdges[op.To]
			if col == nil {
				col = make(map[int32]bool)
				p.pendingEdges[op.To] = col
			}
			col[op.From] = op.Kind != dynamic.OpRemoveEdge
			touched = append(touched, op.To)
		}
	}
	g := ds.sys.Candidate(0).G
	for _, v := range touched {
		if p.emptyColumnLocked(g, v) {
			p.pendingEdges[v][v] = true
		}
	}
}

// emptyColumnLocked reports whether v has no in-edge in the visible graph
// g overlaid with pendingEdges. Caller holds p.mu.
func (p *updatePipeline) emptyColumnLocked(g *graph.Graph, v int32) bool {
	col := p.pendingEdges[v]
	for _, exists := range col {
		if exists {
			return false
		}
	}
	srcs, _ := g.InNeighbors(v)
	for _, s := range srcs {
		if exists, ok := col[s]; !ok || exists {
			return false
		}
	}
	return true
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
		p.assigned.Add(1)
		p.overlayLocked(ds, b)
		p.setQueue(append(p.queue, queuedBatch{ops: b, epoch: firstEpoch + int64(i), acceptedAt: now}))
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
	ds, serr := s.awaitEpoch(ctx, name, p.assigned.Load())
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
	return int(p.depth.Load())
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
		n += int(p.depth.Load())
	}
	return n
}

// UpdateLagSnapshot exposes the accepted-to-visible lag histogram
// (benchmarks read p50/p95 from it).
func (s *Service) UpdateLagSnapshot() obs.HistSnapshot {
	return s.tel.lagHist.With().Snapshot()
}

// datasetAtEpoch is the query-path dataset fetch: min <= 0 (or already
// reached) returns the current snapshot with zero extra cost; a min no
// accept has promised yet is a bad request, since nothing would ever make
// it visible; otherwise it blocks until the async applier publishes the
// requested epoch. The dataset comes held, as from dataset.
func (s *Service) datasetAtEpoch(ctx context.Context, name string, min int64) (*Dataset, *Error) {
	ds, serr := s.dataset(name)
	if serr != nil || min <= ds.epoch {
		return ds, serr
	}
	promised := ds.epoch
	ds.release()
	s.pipMu.Lock()
	p := s.pipelines[name]
	s.pipMu.Unlock()
	if p != nil {
		promised = p.assigned.Load()
	}
	if min > promised {
		return nil, badRequestf("minEpoch %d is past epoch %d, the last one promised to an update", min, promised)
	}
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
// epoch waiter (minEpoch queries, WaitIdle, a blocking ApplyUpdates). The
// caller's hold on next becomes the registry's, and the registry's hold on
// the version it replaces is released. applied are the batches next derived
// from the visible version by: they are noted on the dataset's anchor in
// the same critical section, so a reader of both sees a version and exactly
// the batches behind it. The applier calls it under updMu.
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
			p.pendingEdges = make(map[int32]map[int32]bool)
			p.mu.Unlock()
			return true
		}
		popped := p.queue
		p.setQueue(nil)
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

// setQueue replaces the queue and publishes its length. Caller holds p.mu.
func (p *updatePipeline) setQueue(q []queuedBatch) {
	p.queue = q
	p.depth.Store(int64(len(q)))
}

func (p *updatePipeline) requeueFront(qs []queuedBatch) {
	if len(qs) == 0 {
		return
	}
	p.mu.Lock()
	p.setQueue(append(append(make([]queuedBatch, 0, len(qs)+len(p.queue)), qs...), p.queue...))
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// applyRun applies one coalesced run: repair on the super-batch, hand the
// RAW batches to the persist hook (the log stays a faithful history;
// coalescing is a runtime optimization, never a storage format), record the
// accepted-to-visible lag of every raw batch, then swap and notify epoch
// waiters.
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
	elided := totalOps(raw) - len(run.Super) // 0 once the raw batches run one by one
	next, serr := s.repairDataset(p.ctx, ds, run.Super, len(raw), span)
	if serr != nil {
		if err := p.ctx.Err(); err != nil {
			return err
		}
		// The merged super-batch failed. Fall back to applying the raw
		// batches one at a time so one poisoned batch cannot take its
		// neighbors down with it.
		applied, elided = applied[:0], 0
		next = ds
		for _, q := range raw {
			n2, serr := s.repairDataset(p.ctx, next, q.ops, 1, span)
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
					"dataset", p.name, "epoch", q.epoch, "error", serr.Message)
				n2 = next.noopSuccessor()
			}
			if next != ds {
				next.release()
			}
			next = n2
		}
	}
	if err := s.persistUpdate(span, p.name, rawBatches(raw), next.epoch); err != nil {
		next.release()
		s.errorCount.Add(1)
		s.tel.logger.Warn("update persistence failed; will retry", "dataset", p.name, "error", err.Error())
		return err
	}
	// Count before publishing: a caller the swap wakes (WaitIdle, minEpoch)
	// must read /stats and /metrics with this run in them. After the persist:
	// a run whose persist fails is requeued and coalesced again, and only the
	// attempt that lands counts.
	s.updates.Add(int64(len(raw)))
	s.coalescedOps.Add(int64(elided))
	now := time.Now()
	lag := s.tel.lagHist.With()
	for _, q := range raw {
		lag.ObserveNs(now.Sub(q.acceptedAt).Nanoseconds())
	}
	swap := time.Now()
	s.swapDataset(p.name, next, applied)
	span.Add("swap", time.Since(swap))
	s.tel.observe(p.ctx, span, endpointUpdates, p.name, "", next.epoch, false, "")
	return nil
}

// noopSuccessor is the epoch bump a failed queued batch consumes: same
// system, same artifacts and grounds, and an epoch memo of its own that
// inherits every (target, horizon) value of ds's (successors never share one
// memo). It comes held, like a repair's.
func (ds *Dataset) noopSuccessor() *Dataset {
	ds.hold()
	next := &Dataset{
		name:      ds.name,
		sys:       ds.sys,
		epoch:     ds.epoch + 1,
		baseEpoch: ds.baseEpoch,
		walks:     ds.walks,
		grounds:   ds.grounds,
		memo:      newLRUCache(epochMemoBytes),
		file:      ds.file,
	}
	next.inherit(nil, ds, nil, 0)
	return next
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
