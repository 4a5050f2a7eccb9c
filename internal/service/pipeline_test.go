package service_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"ovm/internal/dynamic"
	"ovm/internal/service"
)

// pipelineBatches is a stream of update batches with disjoint edge-touched
// destination columns (so the coalescer may merge them) and overlapping
// vector writes (so dead-write elision has something to drop). Every edge
// op references nodes that exist in the 120-node test world.
func pipelineBatches() []dynamic.Batch {
	return []dynamic.Batch{
		{
			{Kind: dynamic.OpAddEdge, From: 3, To: 11, W: 0.8},
			{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 33, Value: 0.2},
		},
		{
			{Kind: dynamic.OpAddEdge, From: 17, To: 4, W: 1.2},
			{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 33, Value: 0.6},
			{Kind: dynamic.OpSetStubbornness, Cand: 0, Node: 40, Value: 0.15},
		},
		{
			{Kind: dynamic.OpSetWeight, From: 9, To: 21, W: 2},
			{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 33, Value: 0.95},
		},
	}
}

// TestAsyncUpdatesMatchSyncReplay is the pipeline's equivalence contract:
// a stream of batches accepted asynchronously (and possibly coalesced by
// the background applier) lands on the same final epoch and serves
// byte-identical answers to the same batches applied synchronously one at
// a time. IC, which no artifact serves, answers as the library does on the
// replayed system.
func TestAsyncUpdatesMatchSyncReplay(t *testing.T) {
	_, idx := testWorld(t)
	batches := pipelineBatches()

	sync := newTestService(t, idx)
	defer sync.Close()
	for _, b := range batches {
		if _, serr := sync.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
			t.Fatal(serr)
		}
	}

	_, idx2 := testWorld(t)
	async := service.New(service.Config{AsyncUpdates: true})
	defer async.Close()
	if err := async.AddIndex("world", idx2); err != nil {
		t.Fatal(err)
	}
	var lastPromise int64
	for i, b := range batches {
		resp, serr := async.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: b})
		if serr != nil {
			t.Fatal(serr)
		}
		if !resp.Accepted {
			t.Fatal("async enqueue must report accepted")
		}
		if resp.Epoch != int64(i)+1 {
			t.Fatalf("promised epoch = %d, want %d", resp.Epoch, i+1)
		}
		lastPromise = resp.Epoch
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := async.WaitIdle(ctx, "world"); serr != nil {
		t.Fatal(serr)
	}

	replayed, _, err := dynamic.ReplaySystem(idx.Sys, batches)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []struct {
		name, score string
		theta       int
	}{{"RS", "plurality", tdTheta}, {"RW", "cumulative", 0}, {"IC", "cumulative", 0}} {
		req := selectReq(method.name, method.score, method.theta)
		a, serr := sync.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		b, serr := async.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		if a.Epoch != lastPromise || b.Epoch != lastPromise {
			t.Fatalf("%s: epochs %d / %d, want both %d", method.name, a.Epoch, b.Epoch, lastPromise)
		}
		if !reflect.DeepEqual(a.Seeds, b.Seeds) || a.ExactValue != b.ExactValue {
			t.Fatalf("%s: async diverged from sync: %v %v vs %v %v",
				method.name, a.Seeds, a.ExactValue, b.Seeds, b.ExactValue)
		}
		if method.name == "IC" {
			requireLibraryAnswer(t, replayed, req, b)
		}
	}
	st := async.StatsSnapshot()
	if st.UpdateQueueDepth != 0 {
		t.Fatalf("drained queue depth = %d", st.UpdateQueueDepth)
	}
	if st.Updates != int64(len(batches)) {
		t.Fatalf("updates counter = %d, want %d (one per RAW batch)", st.Updates, len(batches))
	}
	if lag := async.UpdateLagSnapshot(); lag.Count != int64(len(batches)) {
		t.Fatalf("visible-lag observations = %d, want %d", lag.Count, len(batches))
	}
}

// TestSeedQueuedCoalesces proves the applier merges a pre-seeded queue:
// SeedQueued loads every batch before the applier's first pop, so the
// disjoint-column stream coalesces into fewer repairs and the elided-op
// counter moves — while the answers still match the sync replay.
func TestSeedQueuedCoalesces(t *testing.T) {
	_, idx := testWorld(t)
	batches := pipelineBatches()

	async := service.New(service.Config{AsyncUpdates: true})
	defer async.Close()
	if err := async.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	if serr := async.SeedQueued("world", batches, 1); serr != nil {
		t.Fatal(serr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := async.WaitIdle(ctx, "world"); serr != nil {
		t.Fatal(serr)
	}
	st := async.StatsSnapshot()
	if st.CoalescedOps == 0 {
		t.Fatal("pre-seeded disjoint batches with dead vector writes must coalesce")
	}
	if got := st.Datasets[0].Epoch; got != int64(len(batches)) {
		t.Fatalf("epoch after seeded drain = %d, want %d", got, len(batches))
	}

	_, idx2 := testWorld(t)
	sync := newTestService(t, idx2)
	defer sync.Close()
	for _, b := range batches {
		if _, serr := sync.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
			t.Fatal(serr)
		}
	}
	req := selectReq("RS", "plurality", tdTheta)
	a, serr := sync.SelectSeeds(req)
	if serr != nil {
		t.Fatal(serr)
	}
	b, serr := async.SelectSeeds(req)
	if serr != nil {
		t.Fatal(serr)
	}
	if !reflect.DeepEqual(a.Seeds, b.Seeds) || a.ExactValue != b.ExactValue {
		t.Fatalf("coalesced drain diverged from sync replay: %v %v vs %v %v",
			a.Seeds, a.ExactValue, b.Seeds, b.ExactValue)
	}
}

// TestConsistentSnapshotDuringRepair hammers queries while the background
// applier repairs: every response must be internally consistent — the
// value it reports must be exactly the value of the epoch it claims —
// and observed epochs must never go backwards.
func TestConsistentSnapshotDuringRepair(t *testing.T) {
	_, idx := testWorld(t)
	batches := pipelineBatches()

	// Reference values per epoch from a synchronous service.
	seeds := []int32{1, 7, 19}
	evalReq := func(minEpoch int64) *service.EvaluateRequest {
		return &service.EvaluateRequest{
			Dataset: "world", Score: service.ScoreSpec{Name: "cumulative"},
			Horizon: tdHorizon, Target: 0, Seeds: seeds, MinEpoch: minEpoch,
		}
	}
	ref := newTestService(t, idx)
	defer ref.Close()
	want := map[int64]float64{}
	r0, serr := ref.Evaluate(evalReq(0))
	if serr != nil {
		t.Fatal(serr)
	}
	want[0] = r0.Value
	for i, b := range batches {
		if _, serr := ref.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
			t.Fatal(serr)
		}
		rv, serr := ref.Evaluate(evalReq(0))
		if serr != nil {
			t.Fatal(serr)
		}
		want[int64(i)+1] = rv.Value
	}

	_, idx2 := testWorld(t)
	async := service.New(service.Config{AsyncUpdates: true, CacheSize: -1})
	defer async.Close()
	if err := async.AddIndex("world", idx2); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch int64 = -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, serr := async.Evaluate(evalReq(0))
				if serr != nil {
					errCh <- serr
					return
				}
				if resp.Epoch < lastEpoch {
					errCh <- &service.Error{Code: service.CodeInternal,
						Message: "epoch went backwards"}
					return
				}
				lastEpoch = resp.Epoch
				if wantV, ok := want[resp.Epoch]; !ok || wantV != resp.Value {
					errCh <- &service.Error{Code: service.CodeInternal,
						Message: "torn snapshot: value does not match claimed epoch"}
					return
				}
			}
		}()
	}
	for _, b := range batches {
		if _, serr := async.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
			t.Fatal(serr)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := async.WaitIdle(ctx, "world"); serr != nil {
		t.Fatal(serr)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestReadYourWrites: a query carrying the promised epoch as minEpoch
// blocks until the batch is visible and answers at (or after) it; an
// unreachable minEpoch times out with deadline_exceeded.
func TestReadYourWrites(t *testing.T) {
	_, idx := testWorld(t)
	async := service.New(service.Config{AsyncUpdates: true})
	defer async.Close()
	if err := async.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	acc, serr := async.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: pipelineBatches()[0]})
	if serr != nil {
		t.Fatal(serr)
	}
	resp, serr := async.Evaluate(&service.EvaluateRequest{
		Dataset: "world", Score: service.ScoreSpec{Name: "cumulative"},
		Horizon: tdHorizon, Target: 0, Seeds: []int32{1}, MinEpoch: acc.Epoch,
	})
	if serr != nil {
		t.Fatal(serr)
	}
	if resp.Epoch < acc.Epoch {
		t.Fatalf("read-your-writes violated: answered at %d, promised %d", resp.Epoch, acc.Epoch)
	}
	// An epoch no update will ever produce must fail by deadline, not hang.
	_, serr = async.Evaluate(&service.EvaluateRequest{
		Dataset: "world", Score: service.ScoreSpec{Name: "cumulative"},
		Horizon: tdHorizon, Target: 0, Seeds: []int32{1},
		MinEpoch: acc.Epoch + 1000, TimeoutMs: 50,
	})
	if serr == nil || serr.Code != service.CodeDeadlineExceeded {
		t.Fatalf("unreachable minEpoch: got %v, want deadline_exceeded", serr)
	}
}

// TestEnqueueValidation: the epoch promise requires rejecting invalid
// batches at accept time — including statefully invalid ones, judged
// against the graph as it WILL be once the queue drains.
func TestEnqueueValidation(t *testing.T) {
	_, idx := testWorld(t)
	async := service.New(service.Config{AsyncUpdates: true})
	defer async.Close()
	if err := async.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	// Shape violation: out-of-range node.
	if _, serr := async.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: dynamic.Batch{
		{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 100000, Value: 0.5},
	}}); serr == nil || serr.Code != service.CodeBadRequest {
		t.Fatalf("out-of-range op: got %v, want bad_request", serr)
	}
	// Removing a never-existing edge fails at accept time.
	if _, serr := async.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: dynamic.Batch{
		{Kind: dynamic.OpRemoveEdge, From: 118, To: 119},
	}}); serr == nil || serr.Code != service.CodeBadRequest {
		t.Fatalf("remove of missing edge: got %v, want bad_request", serr)
	}
	// Removing an edge a QUEUED batch adds is valid (overlay knows it).
	if _, serr := async.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: dynamic.Batch{
		{Kind: dynamic.OpAddEdge, From: 118, To: 119, W: 0.5},
	}}); serr != nil {
		t.Fatal(serr)
	}
	if _, serr := async.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: dynamic.Batch{
		{Kind: dynamic.OpRemoveEdge, From: 118, To: 119},
	}}); serr != nil {
		t.Fatalf("remove of queued-added edge rejected: %v", serr)
	}
	// ...and a SECOND remove of the same edge is rejected: the overlay
	// tracks post-queue existence.
	if _, serr := async.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: dynamic.Batch{
		{Kind: dynamic.OpRemoveEdge, From: 118, To: 119},
	}}); serr == nil || serr.Code != service.CodeBadRequest {
		t.Fatalf("double remove: got %v, want bad_request", serr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := async.WaitIdle(ctx, "world"); serr != nil {
		t.Fatal(serr)
	}
}

// TestAsyncBlockingApply: ApplyUpdates on an async service preserves the
// blocking contract (returns only once the batch is visible).
func TestAsyncBlockingApply(t *testing.T) {
	_, idx := testWorld(t)
	async := service.New(service.Config{AsyncUpdates: true})
	defer async.Close()
	if err := async.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	resp, serr := async.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: pipelineBatches()[0]})
	if serr != nil {
		t.Fatal(serr)
	}
	st := async.StatsSnapshot()
	if st.Datasets[0].Epoch != resp.Epoch {
		t.Fatalf("blocking apply returned before visibility: visible %d, promised %d",
			st.Datasets[0].Epoch, resp.Epoch)
	}
}
