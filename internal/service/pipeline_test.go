package service_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
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

// sameAnswer reports whether two selections agree bit for bit: the same
// seeds and the same exact value down to its last bit.
func sameAnswer(a, b *service.SelectSeedsResponse) bool {
	return reflect.DeepEqual(a.Seeds, b.Seeds) && math.Float64bits(a.ExactValue) == math.Float64bits(b.ExactValue)
}

// TestAsyncUpdatesMatchSyncReplay is the pipeline's equivalence contract:
// a stream of batches accepted without waiting (and possibly coalesced by
// the background applier) lands on the same final epoch and serves
// bit-identical answers to the same batches applied one blocking
// ApplyUpdates at a time, never coalesced — and both equal a service whose
// index was rebuilt from scratch on the replayed system. IC, which no
// artifact serves, answers as the library does on the replayed system.
func TestAsyncUpdatesMatchSyncReplay(t *testing.T) {
	_, idx := testWorld(t)
	batches := pipelineBatches()

	serial := newTestService(t, idx)
	for _, b := range batches {
		if _, serr := serial.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
			t.Fatal(serr)
		}
	}

	_, idx2 := testWorld(t)
	async := newTestService(t, idx2)
	var lastPromise int64
	for i, b := range batches {
		resp, serr := async.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: b})
		if serr != nil {
			t.Fatal(serr)
		}
		if !resp.Accepted {
			t.Fatal("enqueue must report accepted")
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

	rebuilt, replayed := rebuiltService(t, idx, batches)
	for _, method := range []struct {
		name, score string
		theta       int
	}{{"RS", "plurality", tdTheta}, {"RW", "cumulative", 0}, {"IC", "cumulative", 0}} {
		req := selectReq(method.name, method.score, method.theta)
		var got [3]*service.SelectSeedsResponse
		for i, svc := range []*service.Service{serial, async, rebuilt} {
			resp, serr := svc.SelectSeeds(req)
			if serr != nil {
				t.Fatal(serr)
			}
			got[i] = resp
		}
		a, b, r := got[0], got[1], got[2]
		if a.Epoch != lastPromise || b.Epoch != lastPromise {
			t.Fatalf("%s: epochs %d / %d, want both %d", method.name, a.Epoch, b.Epoch, lastPromise)
		}
		if !sameAnswer(a, b) {
			t.Fatalf("%s: async diverged from the serial replay: %v %v vs %v %v",
				method.name, a.Seeds, a.ExactValue, b.Seeds, b.ExactValue)
		}
		if !sameAnswer(b, r) {
			t.Fatalf("%s: async diverged from the rebuild: %v %v vs %v %v",
				method.name, b.Seeds, b.ExactValue, r.Seeds, r.ExactValue)
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
// counter moves — while the answers still match the serial replay and the
// rebuild from scratch.
func TestSeedQueuedCoalesces(t *testing.T) {
	_, idx := testWorld(t)
	batches := pipelineBatches()

	async := newTestService(t, idx)
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
	serial := newTestService(t, idx2)
	for _, b := range batches {
		if _, serr := serial.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
			t.Fatal(serr)
		}
	}
	rebuilt, _ := rebuiltService(t, idx, batches)
	req := selectReq("RS", "plurality", tdTheta)
	var got [3]*service.SelectSeedsResponse
	for i, svc := range []*service.Service{serial, async, rebuilt} {
		resp, serr := svc.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		got[i] = resp
	}
	if !sameAnswer(got[0], got[1]) || !sameAnswer(got[2], got[1]) {
		t.Fatalf("coalesced drain %v %v diverged: serial replay %v %v, rebuild %v %v",
			got[1].Seeds, got[1].ExactValue, got[0].Seeds, got[0].ExactValue, got[2].Seeds, got[2].ExactValue)
	}
}

// TestCoalescedOpsCountedOnce: a run whose persist fails goes back to the
// queue and is coalesced again; only the attempt that lands counts the ops
// it elided, so one failed persist leaves the counter where a clean drain
// of the same batches puts it.
func TestCoalescedOpsCountedOnce(t *testing.T) {
	coalescedOps := func(failures int) int64 {
		_, idx := testWorld(t)
		svc := service.New(service.Config{OnUpdate: func(string, []dynamic.Batch, int64) error {
			if failures > 0 {
				failures--
				return errors.New("injected persist failure")
			}
			return nil
		}})
		defer svc.Close()
		if err := svc.AddIndex("world", idx); err != nil {
			t.Fatal(err)
		}
		if serr := svc.SeedQueued("world", pipelineBatches(), 1); serr != nil {
			t.Fatal(serr)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if serr := svc.WaitIdle(ctx, "world"); serr != nil {
			t.Fatal(serr)
		}
		return svc.StatsSnapshot().CoalescedOps
	}
	clean, retried := coalescedOps(0), coalescedOps(1)
	if clean == 0 || retried != clean {
		t.Fatalf("coalesced ops: %d after a failed persist and its retry, %d after a clean drain", retried, clean)
	}
}

// TestConsistentSnapshotDuringRepair hammers queries while the background
// applier repairs: every response must be internally consistent — the
// value it reports must be exactly the value of the epoch it claims —
// and observed epochs must never go backwards.
func TestConsistentSnapshotDuringRepair(t *testing.T) {
	_, idx := testWorld(t)
	batches := pipelineBatches()

	// Reference values per epoch, one blocking ApplyUpdates at a time.
	seeds := []int32{1, 7, 19}
	evalReq := func(minEpoch int64) *service.EvaluateRequest {
		return &service.EvaluateRequest{
			Dataset: "world", Score: service.ScoreSpec{Name: "cumulative"},
			Horizon: tdHorizon, Target: 0, Seeds: seeds, MinEpoch: minEpoch,
		}
	}
	ref := newTestService(t, idx)
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
	async := service.New(service.Config{CacheSize: -1})
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
// blocks until the batch is visible and answers at (or after) it; a
// minEpoch no accept has promised is refused with bad_request, not waited
// for.
func TestReadYourWrites(t *testing.T) {
	_, idx := testWorld(t)
	async := newTestService(t, idx)
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
	// An epoch no update has been promised must fail at once, not hang.
	_, serr = async.Evaluate(&service.EvaluateRequest{
		Dataset: "world", Score: service.ScoreSpec{Name: "cumulative"},
		Horizon: tdHorizon, Target: 0, Seeds: []int32{1},
		MinEpoch: acc.Epoch + 1000, TimeoutMs: 50,
	})
	if serr == nil || serr.Code != service.CodeBadRequest {
		t.Fatalf("unreachable minEpoch: got %v, want bad_request", serr)
	}
}

// TestUnpromisedMinEpochRefused: over HTTP, with no deadline, a minEpoch
// one past the last promised epoch answers 400 within 100 ms naming both
// epochs — on a fresh dataset, where the last promise is the visible epoch,
// and while an accepted batch is held before its swap. The promised but
// unapplied epoch itself is waited for: with timeoutMs 50 the wait ends at
// its deadline with 504 deadline_exceeded, and with no deadline it blocks
// until the batch is visible, then answers.
func TestUnpromisedMinEpochRefused(t *testing.T) {
	_, idx := testWorld(t)
	held, release := make(chan struct{}), make(chan struct{})
	var hold, unhold sync.Once
	defer unhold.Do(func() { close(release) })
	svc := service.New(service.Config{OnUpdate: func(string, []dynamic.Batch, int64) error {
		hold.Do(func() { close(held); <-release })
		return nil
	}})
	t.Cleanup(svc.Close)
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 5 * time.Second} // a hang fails, not stalls, the test
	evaluate := func(minEpoch int64, timeoutMs int) (int, string, time.Duration) {
		body := fmt.Sprintf(`{"dataset":"world","score":{"name":"cumulative"},"horizon":%d,"seeds":[1],"minEpoch":%d,"timeoutMs":%d}`, tdHorizon, minEpoch, timeoutMs)
		start := time.Now()
		resp, err := client.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err.Error(), time.Since(start)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, err.Error(), time.Since(start)
		}
		return resp.StatusCode, string(raw), time.Since(start)
	}
	refused := func(minEpoch, promised int64) {
		t.Helper()
		status, raw, took := evaluate(minEpoch, 0)
		if status != http.StatusBadRequest || took > 100*time.Millisecond {
			t.Fatalf("minEpoch %d with epoch %d promised: %d %s after %v, want 400 within 100ms", minEpoch, promised, status, raw, took)
		}
		if want := fmt.Sprintf("minEpoch %d is past epoch %d", minEpoch, promised); !strings.Contains(raw, want) {
			t.Errorf("refusal %s does not say %q", raw, want)
		}
	}
	refused(1, 0)
	acc, serr := svc.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: pipelineBatches()[0]})
	if serr != nil {
		t.Fatal(serr)
	}
	<-held
	refused(acc.Epoch+1, acc.Epoch)
	status, raw, took := evaluate(acc.Epoch, 50)
	if status != http.StatusGatewayTimeout || !strings.Contains(raw, string(service.CodeDeadlineExceeded)) || took < 50*time.Millisecond {
		t.Fatalf("promised epoch %d held, timeoutMs 50: %d %s after %v, want 504 deadline_exceeded at the deadline", acc.Epoch, status, raw, took)
	}
	type answer struct {
		status int
		raw    string
	}
	got := make(chan answer, 1)
	go func() {
		status, raw, _ := evaluate(acc.Epoch, 0)
		got <- answer{status, raw}
	}()
	select {
	case a := <-got:
		t.Fatalf("promised epoch %d answered %d %s before its batch was visible", acc.Epoch, a.status, a.raw)
	case <-time.After(50 * time.Millisecond):
	}
	unhold.Do(func() { close(release) })
	if a := <-got; a.status != http.StatusOK || !strings.Contains(a.raw, fmt.Sprintf(`"epoch":%d`, acc.Epoch)) {
		t.Fatalf("promised epoch %d: %d %s, want 200 at that epoch", acc.Epoch, a.status, a.raw)
	}
}

// TestEnqueueValidation: the epoch promise requires rejecting invalid
// batches at accept time — including statefully invalid ones, judged
// against the graph as it WILL be once the queue drains.
func TestEnqueueValidation(t *testing.T) {
	_, idx := testWorld(t)
	async := newTestService(t, idx)
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
	// Weights into one column that sum past the float64 range fail at
	// accept: the repair could not normalize the column.
	if _, serr := async.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: dynamic.Batch{
		{Kind: dynamic.OpAddEdge, From: 1, To: 2, W: 1e308},
		{Kind: dynamic.OpAddEdge, From: 1, To: 2, W: 1e308},
	}}); serr == nil || serr.Code != service.CodeBadRequest {
		t.Fatalf("non-finite column sum: got %v, want bad_request", serr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := async.WaitIdle(ctx, "world"); serr != nil {
		t.Fatal(serr)
	}
}

// TestEnqueueModelsSelfLoopRule: the repair gives a column a batch leaves
// without in-edges a weight-1 self-loop, and accept knows that while the
// batch is still queued, so removing that self-loop is valid then as it is
// after the queue drains. A self-loop no queued batch creates stays
// unremovable. The first batch is held mid-apply (in OnUpdate), so every
// later accept validates against the overlay, not the applied graph.
func TestEnqueueModelsSelfLoopRule(t *testing.T) {
	sys, idx := testWorld(t)
	g := sys.Candidate(0).G
	const lone = 43 // one in-edge, from another node
	srcs, _ := g.InNeighbors(lone)
	if len(srcs) != 1 || srcs[0] == lone {
		t.Fatalf("node %d in-neighbors %v, want exactly one other node", lone, srcs)
	}
	wide := int32(-1) // two or more in-edges, none a self-loop
	for v := int32(0); v < int32(g.N()) && wide < 0; v++ {
		if vs, _ := g.InNeighbors(v); len(vs) >= 2 && !slices.Contains(vs, v) {
			wide = v
		}
	}
	if wide < 0 {
		t.Fatal("no node with two in-edges and no self-loop")
	}
	wideSrcs, _ := g.InNeighbors(wide)

	held, release := make(chan struct{}), make(chan struct{})
	var hold, unhold sync.Once
	defer unhold.Do(func() { close(release) })
	svc := service.New(service.Config{OnUpdate: func(string, []dynamic.Batch, int64) error {
		hold.Do(func() { close(held); <-release })
		return nil
	}})
	t.Cleanup(svc.Close)
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	enqueue := func(b dynamic.Batch) *service.Error {
		_, serr := svc.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: b})
		return serr
	}
	remove := func(from, to int32) dynamic.Batch {
		return dynamic.Batch{{Kind: dynamic.OpRemoveEdge, From: from, To: to}}
	}
	if serr := enqueue(remove(srcs[0], lone)); serr != nil {
		t.Fatal(serr)
	}
	<-held
	if serr := enqueue(remove(wideSrcs[0], wide)); serr != nil {
		t.Fatal(serr)
	}
	if serr := enqueue(remove(wide, wide)); serr == nil || serr.Code != service.CodeBadRequest {
		t.Fatalf("remove of a self-loop no batch creates: got %v, want bad_request", serr)
	}
	if serr := enqueue(remove(lone, lone)); serr != nil {
		t.Fatalf("remove of the self-loop a queued batch creates: %v", serr)
	}
	unhold.Do(func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := svc.WaitIdle(ctx, "world"); serr != nil {
		t.Fatal(serr)
	}
	// Three accepted batches, all applied: the only error is the rejection,
	// and only wide's removed edge is gone (lone ends on its self-loop).
	st := svc.StatsSnapshot()
	if ds := st.Datasets[0]; ds.Epoch != 3 || st.Errors != 1 || ds.Edges != g.M()-1 {
		t.Errorf("epoch=%d errors=%d edges=%d, want 3, 1, %d", ds.Epoch, st.Errors, ds.Edges, g.M()-1)
	}
}

// TestCountersPublishedWithEpoch: a caller the swap wakes reads /stats with
// the swapped-in batches already counted. After each of 200 blocking
// ApplyUpdates, the updates counter and the visible-lag histogram hold
// exactly the batches applied so far.
func TestCountersPublishedWithEpoch(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	if err := svc.AddIndex("world", tortureWorld(t)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		b := dynamic.Batch{{Kind: dynamic.OpSetOpinion, Cand: 0, Node: int32(i % 60), Value: float64(i%10) / 10}}
		if _, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
			t.Fatal(serr)
		}
		if got := svc.StatsSnapshot().Updates; got != int64(i) {
			t.Fatalf("after %d blocking updates /stats counts %d", i, got)
		}
		if got := svc.UpdateLagSnapshot().Count; got != int64(i) {
			t.Fatalf("after %d blocking updates the lag histogram holds %d", i, got)
		}
	}
}

// TestStatsAnswerDuringAcceptWrite: the queue depth is read without the
// pipeline's lock, so while an accept's durable write (OnEnqueue, ovmd's
// fsync'd WAL append) is held, QueueDepth and /stats still answer within
// 100 ms, and once it returns the batch is queued and applied.
func TestStatsAnswerDuringAcceptWrite(t *testing.T) {
	_, idx := testWorld(t)
	held, release := make(chan struct{}), make(chan struct{})
	var hold, unhold sync.Once
	defer unhold.Do(func() { close(release) })
	svc := service.New(service.Config{OnEnqueue: func(string, dynamic.Batch, int64) error {
		hold.Do(func() { close(held); <-release })
		return nil
	}})
	t.Cleanup(svc.Close)
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	stats := func() {
		resp, err := client.Get(ts.URL + "/stats")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("/stats: status %d, %v", resp.StatusCode, err)
		}
	}
	stats() // the connection is set up before the write is held

	accepted := make(chan *service.Error, 1)
	go func() {
		_, serr := svc.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: testBatch(t, idx)})
		accepted <- serr
	}()
	<-held
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { f(); close(done) }()
		select {
		case <-done:
		case <-time.After(100 * time.Millisecond):
			t.Errorf("%s did not answer within 100 ms while an accept's durable write was held", what)
		}
	}
	within("QueueDepth", func() {
		if d := svc.QueueDepth("world"); d != 0 {
			t.Errorf("queue depth %d during the write, want 0: the batch is queued once it is durable", d)
		}
	})
	within("/stats", stats)
	unhold.Do(func() { close(release) })
	if serr := <-accepted; serr != nil {
		t.Fatal(serr)
	}
	if serr := svc.WaitIdle(context.Background(), "world"); serr != nil {
		t.Fatal(serr)
	}
	if d := svc.QueueDepth("world"); d != 0 {
		t.Fatalf("queue depth %d once the batch is applied, want 0", d)
	}
}
