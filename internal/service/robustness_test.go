package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ovm/internal/datasets"
	"ovm/internal/dynamic"
	"ovm/internal/iofault"
	"ovm/internal/persist"
	"ovm/internal/serialize"
	"ovm/internal/service"
)

// countdownCtx cancels itself after a fixed number of Err() polls: the
// cooperative cancellation points in the engine and the greedy loops all go
// through ctx.Err(), so a countdown lands the cancellation deterministically
// mid-computation instead of depending on wall-clock timing.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
	err       error // what Err reports once the countdown has run out
	done      chan struct{}
	once      sync.Once
}

func newCountdown(parent context.Context, polls int64) *countdownCtx {
	c := &countdownCtx{Context: parent, err: context.Canceled, done: make(chan struct{})}
	c.remaining.Store(polls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) <= 0 {
		c.once.Do(func() { close(c.done) })
		return c.err
	}
	return c.Context.Err()
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

// TestCancelMidGreedyLeavesNoPartialState is the cancellation-determinism
// contract: a select-seeds computation cancelled in the middle of its greedy
// loop must return a typed canceled error, and an immediate identical
// re-query must be byte-identical to a run that was never cancelled — the
// cancelled computation can leave no partial estimator state behind, at any
// parallelism.
func TestCancelMidGreedyLeavesNoPartialState(t *testing.T) {
	_, idx := testWorld(t)
	for _, method := range []string{"RS", "RW", "DM"} {
		for _, par := range []int{1, 4, 0} {
			t.Run(fmt.Sprintf("%s/P%d", method, par), func(t *testing.T) {
				// Baseline: the same query on a service that never cancels.
				clean := newTestService(t, idx)
				req := selectReq(method, "plurality", 0)
				req.Parallelism = par
				want, serr := clean.SelectSeeds(req)
				if serr != nil {
					t.Fatal(serr)
				}

				// The hooked service cancels exactly the first computation
				// after a handful of cooperative polls — mid-greedy.
				var armed atomic.Bool
				armed.Store(true)
				cfg := service.Config{}
				cfg.SetComputeContext(func(ctx context.Context) context.Context {
					if armed.CompareAndSwap(true, false) {
						return newCountdown(ctx, 3)
					}
					return ctx
				})
				svc := service.New(cfg)
				if err := svc.AddIndex("world", idx); err != nil {
					t.Fatal(err)
				}
				_, serr = svc.SelectSeeds(req)
				if serr == nil {
					t.Fatal("expected the first query to be cancelled mid-greedy")
				}
				if serr.Code != service.CodeCanceled {
					t.Fatalf("error code = %s, want %s", serr.Code, service.CodeCanceled)
				}

				got, serr := svc.SelectSeeds(req)
				if serr != nil {
					t.Fatalf("re-query after cancellation: %v", serr)
				}
				if got.Cached {
					t.Fatal("cancelled computation must not have populated the cache")
				}
				if !reflect.DeepEqual(got.Seeds, want.Seeds) || got.ExactValue != want.ExactValue {
					t.Errorf("re-query after cancellation diverged: seeds %v value %v, want %v / %v",
						got.Seeds, got.ExactValue, want.Seeds, want.ExactValue)
				}
				st := svc.StatsSnapshot()
				if st.Canceled != 1 {
					t.Errorf("canceled counter = %d, want 1", st.Canceled)
				}
			})
		}
	}
}

// TestDeadlineExceededPromptlyOnBenchGraph pins the acceptance bound: a
// select-seeds query with an expired deadline on the 12k-node sweep graph
// returns deadline_exceeded within deadline + 250ms at P=0, and an
// immediate identical re-query (no deadline) is byte-identical to a run
// that never had one.
func TestDeadlineExceededPromptlyOnBenchGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("12k-node graph synthesis + cold selection in -short mode")
	}
	const (
		horizon = 10
		seed    = int64(42)
		k       = 20
	)
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 12000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	newSvc := func() *service.Service {
		svc := service.New(service.Config{})
		if err := svc.AddDataset("sweep", d.Sys); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	// RW computes its walk sets from scratch here (no index): a cold
	// selection long enough for the deadline below to interrupt.
	req := &service.SelectSeedsRequest{
		Dataset: "sweep",
		Method:  "RW",
		Score:   service.ScoreSpec{Name: "plurality"},
		K:       k,
		Horizon: horizon,
		Target:  d.DefaultTarget,
		Seed:    seed,
	}

	// Uncancelled baseline on its own service instance. Its duration sets
	// the deadline below — 100ms, or a third of the baseline on a machine
	// fast enough to finish in under 300ms — so it expires mid-compute.
	baseline := newSvc()
	baseStart := time.Now()
	want, serr := baseline.SelectSeeds(req)
	if serr != nil {
		t.Fatal(serr)
	}
	deadline := min(100*time.Millisecond, time.Since(baseStart)/3).Truncate(time.Millisecond)
	if deadline < 20*time.Millisecond {
		t.Fatalf("fixture too fast (%v deadline): it would not reliably expire mid-compute", deadline)
	}

	svc := newSvc()
	timed := *req
	timed.TimeoutMs = int(deadline / time.Millisecond)
	start := time.Now()
	_, serr = svc.SelectSeeds(&timed)
	elapsed := time.Since(start)
	if serr == nil {
		t.Fatalf("a %v deadline must expire during a cold 12k-node selection", deadline)
	}
	if serr.Code != service.CodeDeadlineExceeded {
		t.Fatalf("error code = %s, want %s", serr.Code, service.CodeDeadlineExceeded)
	}
	if elapsed > deadline+250*time.Millisecond {
		t.Errorf("deadline-expired query returned after %v, want <= deadline + 250ms", elapsed)
	}
	if st := svc.StatsSnapshot(); st.Timeouts != 1 {
		t.Errorf("timeouts counter = %d, want 1", st.Timeouts)
	}

	got, serr := svc.SelectSeeds(req)
	if serr != nil {
		t.Fatalf("re-query after deadline expiry: %v", serr)
	}
	if !reflect.DeepEqual(got.Seeds, want.Seeds) || got.ExactValue != want.ExactValue {
		t.Errorf("re-query after deadline diverged: seeds %v value %v, want %v / %v",
			got.Seeds, got.ExactValue, want.Seeds, want.ExactValue)
	}
}

func TestNegativeTimeoutRejected(t *testing.T) {
	_, idx := testWorld(t)
	svc := newTestService(t, idx)
	req := selectReq("RS", "plurality", 0)
	req.TimeoutMs = -1
	_, serr := svc.SelectSeeds(req)
	if serr == nil || serr.Code != service.CodeBadRequest {
		t.Fatalf("negative timeoutMs: got %v, want bad_request", serr)
	}
}

// TestAdmissionControlShedsAndServesCacheHits: with a full inflight slot and
// a zero-length queue, a new computation is shed with overloaded +
// Retry-After while a cache-servable query still answers.
func TestAdmissionControlShedsAndServesCacheHits(t *testing.T) {
	_, idx := testWorld(t)

	blockEnter := make(chan struct{})
	blockRelease := make(chan struct{})
	var blocking atomic.Bool
	cfg := service.Config{MaxInflight: 1, MaxQueue: 0}
	cfg.SetComputeContext(func(ctx context.Context) context.Context {
		if blocking.Load() {
			close(blockEnter)
			<-blockRelease
		}
		return ctx
	})
	svc := service.New(cfg)
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}

	// Prime a cache entry while nothing blocks.
	warm := selectReq("RS", "plurality", 0)
	if _, serr := svc.SelectSeeds(warm); serr != nil {
		t.Fatal(serr)
	}

	// Occupy the only compute slot: the hook runs after acquire, so parking
	// inside it holds the slot for as long as the test wants.
	blocking.Store(true)
	holderDone := make(chan *service.Error, 1)
	go func() {
		holder := selectReq("RS", "borda", 0)
		_, serr := svc.SelectSeeds(holder)
		holderDone <- serr
	}()
	<-blockEnter
	blocking.Store(false)

	// A third, distinct computation must be shed — over HTTP, to pin the
	// 429 + Retry-After contract end to end.
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	shedBody, err := json.Marshal(selectReq("RS", "copeland", 0))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/select-seeds", "application/json", bytes.NewReader(shedBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed query status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}

	// The cache-servable query still answers while compute is saturated.
	cached, serr := svc.SelectSeeds(warm)
	if serr != nil {
		t.Fatalf("cached query during shedding: %v", serr)
	}
	if !cached.Cached {
		t.Error("warm query should have been served from the cache")
	}

	close(blockRelease)
	if serr := <-holderDone; serr != nil {
		t.Fatalf("slot-holding query failed: %v", serr)
	}
	st := svc.StatsSnapshot()
	if st.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", st.Shed)
	}
}

// TestQueuedComputationWaitsForSlot: with queue capacity, the second
// computation waits for the slot instead of being shed.
func TestQueuedComputationWaitsForSlot(t *testing.T) {
	_, idx := testWorld(t)
	blockEnter := make(chan struct{})
	blockRelease := make(chan struct{})
	var blocking atomic.Bool
	cfg := service.Config{MaxInflight: 1, MaxQueue: 4}
	cfg.SetComputeContext(func(ctx context.Context) context.Context {
		if blocking.CompareAndSwap(true, false) {
			close(blockEnter)
			<-blockRelease
		}
		return ctx
	})
	svc := service.New(cfg)
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	blocking.Store(true)
	holderDone := make(chan *service.Error, 1)
	go func() {
		_, serr := svc.SelectSeeds(selectReq("RS", "plurality", 0))
		holderDone <- serr
	}()
	<-blockEnter
	queuedDone := make(chan *service.Error, 1)
	go func() {
		_, serr := svc.SelectSeeds(selectReq("RS", "borda", 0))
		queuedDone <- serr
	}()
	select {
	case serr := <-queuedDone:
		t.Fatalf("queued query finished while the slot was held: %v", serr)
	case <-time.After(50 * time.Millisecond):
	}
	close(blockRelease)
	for i, ch := range []chan *service.Error{holderDone, queuedDone} {
		if serr := <-ch; serr != nil {
			t.Fatalf("query %d failed: %v", i, serr)
		}
	}
	if st := svc.StatsSnapshot(); st.Shed != 0 {
		t.Errorf("shed counter = %d, want 0 (the queue absorbed the burst)", st.Shed)
	}
}

// TestPanicRecoveryMiddleware: a crashing handler becomes a 500 plus an
// ovmd_panics_total increment, and the daemon keeps serving.
func TestPanicRecoveryMiddleware(t *testing.T) {
	_, idx := testWorld(t)
	svc := service.New(service.Config{DebugFaults: true})
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/debug/fault/panic", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic endpoint status = %d, want 500", resp.StatusCode)
	}
	if st := svc.StatsSnapshot(); st.Panics != 1 {
		t.Errorf("panics counter = %d, want 1", st.Panics)
	}

	// The daemon survived: health and a real query still work.
	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d, want 200", h.StatusCode)
	}
	q := postJSON(t, srv.URL+"/v1/select-seeds", selectReq("RS", "plurality", 0))
	q.Body.Close()
	if q.StatusCode != http.StatusOK {
		t.Fatalf("query after panic = %d, want 200", q.StatusCode)
	}
}

func TestDebugFaultEndpointGatedOff(t *testing.T) {
	_, idx := testWorld(t)
	svc := newTestService(t, idx) // DebugFaults defaults to false
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/debug/fault/panic", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusInternalServerError {
		t.Fatal("fault endpoint must not exist without DebugFaults")
	}
}

func TestUpdateBatchOpCountBounded(t *testing.T) {
	_, idx := testWorld(t)
	svc := newTestService(t, idx)
	req := &service.UpdateRequest{Dataset: "world", Ops: make(dynamic.Batch, 65537)}
	_, serr := svc.ApplyUpdates(req)
	if serr == nil || serr.Code != service.CodeBadRequest {
		t.Fatalf("oversized batch: got %v, want bad_request", serr)
	}
	if !strings.Contains(serr.Message, "65536") {
		t.Errorf("error should name the limit: %q", serr.Message)
	}
}

func TestOversizedBodyRejectedWith413(t *testing.T) {
	_, idx := testWorld(t)
	svc := newTestService(t, idx)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body := `{"dataset":"world","junk":"` + strings.Repeat("x", 9<<20) + `"}`
	resp, err := http.Post(srv.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestPersistFailureKeepsOldEpoch is the persist-before-swap contract at the
// service layer: while the hook before the swap (OnUpdate) fails, the
// accepted batch does not become visible and the applier retries; once the
// hook succeeds the promised epoch appears.
func TestPersistFailureKeepsOldEpoch(t *testing.T) {
	_, idx := testWorld(t)
	var svc *service.Service
	var calls atomic.Int32
	svc = service.New(service.Config{
		OnUpdate: func(_ string, batches []dynamic.Batch, epoch int64) error {
			n := calls.Add(1)
			if got := svc.StatsSnapshot().Datasets[0].Epoch; got != 0 {
				t.Errorf("hook call %d: epoch %d visible before the hook succeeded", n, got)
			}
			if len(batches) != 1 || epoch != 1 {
				t.Errorf("hook call %d: %d batches up to epoch %d, want 1 up to 1", n, len(batches), epoch)
			}
			if n <= 2 {
				return fmt.Errorf("disk on fire")
			}
			return nil
		},
	})
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	acc, serr := svc.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: testBatch(t, idx)})
	if serr != nil {
		t.Fatal(serr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := svc.WaitIdle(ctx, "world"); serr != nil {
		t.Fatal(serr)
	}
	st := svc.StatsSnapshot()
	if calls.Load() != 3 || st.Datasets[0].Epoch != acc.Epoch {
		t.Fatalf("after %d hook calls the epoch is %d, want 3 calls and the promised %d", calls.Load(), st.Datasets[0].Epoch, acc.Epoch)
	}
	if st.Errors != 2 {
		t.Fatalf("errors = %d, want the 2 failed hook calls", st.Errors)
	}
	got, serr := svc.SelectSeeds(selectReq("RS", "plurality", 0))
	if serr != nil {
		t.Fatal(serr)
	}
	_, idx2 := testWorld(t)
	ref := newTestService(t, idx2)
	if _, serr := ref.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: testBatch(t, idx)}); serr != nil {
		t.Fatal(serr)
	}
	want, serr := ref.SelectSeeds(selectReq("RS", "plurality", 0))
	if serr != nil {
		t.Fatal(serr)
	}
	if !sameAnswer(got, want) || got.Epoch != 1 {
		t.Errorf("after the retried hook: %v/%v at epoch %d, want %v/%v at 1", got.Seeds, got.ExactValue, got.Epoch, want.Seeds, want.ExactValue)
	}
}

// TestEnqueuePersistFailurePromisesNothing: when the durable write at accept
// (OnEnqueue) fails, the batch is refused as internal, no epoch is promised
// or queued, and the next accepted batch gets the epoch the refused one
// would have.
func TestEnqueuePersistFailurePromisesNothing(t *testing.T) {
	_, idx := testWorld(t)
	var fail atomic.Bool
	fail.Store(true)
	svc := service.New(service.Config{
		OnEnqueue: func(string, dynamic.Batch, int64) error {
			if fail.Load() {
				return fmt.Errorf("disk full")
			}
			return nil
		},
	})
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	req := &service.UpdateRequest{Dataset: "world", Ops: testBatch(t, idx)}
	resp, serr := svc.EnqueueUpdates(req)
	if serr == nil || serr.Code != service.CodeInternal || resp != nil {
		t.Fatalf("failed durable write: got %+v / %v, want an internal error and no promise", resp, serr)
	}
	if depth := svc.QueueDepth("world"); depth != 0 {
		t.Fatalf("a refused batch was queued: depth %d", depth)
	}
	fail.Store(false)
	resp, serr = svc.ApplyUpdates(req)
	if serr != nil {
		t.Fatal(serr)
	}
	if resp.Epoch != 1 {
		t.Fatalf("the next accepted batch was promised epoch %d, want 1", resp.Epoch)
	}
	if epoch := svc.StatsSnapshot().Datasets[0].Epoch; epoch != 1 {
		t.Fatalf("visible epoch = %d, want 1", epoch)
	}
}

// --- update-persist crash torture --------------------------------------

// tortureWorld is a deliberately small fixture (sketch artifact only) so the
// full point × action sweep — each subtest persists, "crashes", restarts,
// replays, and queries — stays fast.
func tortureWorld(t testing.TB) *serialize.Index {
	t.Helper()
	d, err := datasets.YelpLike(datasets.Options{N: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := service.BuildIndex(d.Sys, service.BuildOptions{
		Target:      0,
		Horizon:     6,
		Seed:        9,
		SketchTheta: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func tortureBatch() dynamic.Batch {
	return dynamic.Batch{
		{Kind: dynamic.OpAddEdge, From: 3, To: 11, W: 0.8},
		{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 33, Value: 0.95},
	}
}

func tortureReq() *service.SelectSeedsRequest {
	return &service.SelectSeedsRequest{
		Dataset: "world",
		Method:  "RS",
		Score:   service.ScoreSpec{Name: "plurality"},
		K:       4,
		Horizon: 6,
		Target:  0,
		Seed:    9,
	}
}

func readIndexFile(t *testing.T, path string) *serialize.Index {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	idx, err := serialize.ReadIndex(f)
	if err != nil {
		t.Fatalf("index at %s is corrupt — old-or-new invariant broken: %v", path, err)
	}
	return idx
}

// daemonWrites replicates on fsys what ovmd writes for the index file at
// path when it serves it with -compact-log 1. OnEnqueue appends the accepted
// batch to the WAL: the batch's one durable write. OnUpdate checkpoints the
// visible version before each swap: export, atomic rewrite, then the WAL
// pruned behind it; as in the daemon, a failed checkpoint is only skipped.
// A simulated crash in either hook becomes an error and closes dead: the
// "process" has died, and the test only stops it.
type daemonWrites struct {
	svc      *service.Service
	wal      *persist.WAL
	dead     chan struct{}
	deadOnce sync.Once
}

func openDaemonWrites(t *testing.T, fsys iofault.FS, path string, idx *serialize.Index) *daemonWrites {
	t.Helper()
	wal, _, err := persist.OpenWAL(fsys, path+".wal")
	if err != nil {
		t.Fatal(err)
	}
	d := &daemonWrites{wal: wal, dead: make(chan struct{})}
	d.svc = service.New(service.Config{
		OnEnqueue: func(_ string, batch dynamic.Batch, epoch int64) (err error) {
			defer d.survive(&err)
			return wal.Append(persist.WALEntry{Epoch: epoch, Batch: batch})
		},
		OnUpdate: func(string, []dynamic.Batch, int64) (err error) {
			defer d.survive(&err)
			exported, serr := d.svc.ExportIndex("world")
			if serr != nil {
				return serr
			}
			if persist.WriteIndexAtomic(fsys, path, exported) == nil {
				_ = wal.Prune(exported.BaseEpoch)
			}
			return nil
		},
	})
	if err := d.svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	return d
}

// survive, deferred in a hook, turns a simulated crash into an error.
func (d *daemonWrites) survive(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(*iofault.Crash); !ok {
			panic(r)
		}
		d.deadOnce.Do(func() { close(d.dead) })
		*err = fmt.Errorf("%v", r)
	}
}

// update posts batch and waits for it to become visible, for the hooks to
// die, or for the accept to be refused. It reports the accept's error.
func (d *daemonWrites) update(t *testing.T, batch dynamic.Batch) *service.Error {
	t.Helper()
	_, serr := d.svc.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: batch})
	if serr != nil {
		return serr
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		select {
		case <-d.dead:
			cancel()
		case <-ctx.Done():
		}
	}()
	if werr := d.svc.WaitIdle(ctx, "world"); werr != nil && !d.crashed() {
		t.Fatalf("accepted batch never became visible: %v", werr)
	}
	return nil
}

func (d *daemonWrites) crashed() bool {
	select {
	case <-d.dead:
		return true
	default:
		return false
	}
}

// stop ends the daemon: the applier, then the WAL's descriptor, whose close
// is a file operation too and may crash.
func (d *daemonWrites) stop() {
	d.svc.Close()
	func() {
		defer d.survive(new(error))
		_ = d.wal.Close()
	}()
}

// TestUpdatePersistCrashTorture sweeps every file operation the daemon
// performs for one update — the WAL append at accept, then a checkpoint
// before the swap — with an error, a torn write, and a simulated crash.
// After each fault the "daemon" restarts the way ovmd does (OpenWAL →
// AddIndex → SeedQueued → WaitIdle): the index must parse (never a torn
// in-between), land on the old or the new epoch — the new one whenever the
// batch was accepted, the old one whenever it was refused without a crash —
// and serve seeds bit-identical to a clean run at that epoch.
func TestUpdatePersistCrashTorture(t *testing.T) {
	base := tortureWorld(t)
	batch := tortureBatch()

	// Baselines: seeds at epoch 0 and (after a clean update) at epoch 1.
	baselines := map[int64]*service.SelectSeedsResponse{}
	for epoch := int64(0); epoch <= 1; epoch++ {
		svc := service.New(service.Config{})
		if err := svc.AddIndex("world", base); err != nil {
			t.Fatal(err)
		}
		if epoch == 1 {
			if _, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: batch}); serr != nil {
				t.Fatal(serr)
			}
		}
		resp, serr := svc.SelectSeeds(tortureReq())
		if serr != nil {
			t.Fatal(serr)
		}
		svc.Close()
		if resp.Epoch != epoch {
			t.Fatalf("baseline epoch = %d, want %d", resp.Epoch, epoch)
		}
		baselines[epoch] = resp
	}

	// Recording pass: enumerate the injection points of one clean update.
	recPath := filepath.Join(t.TempDir(), "world.ovmidx")
	if err := persist.WriteIndexAtomic(iofault.OS, recPath, base); err != nil {
		t.Fatal(err)
	}
	rec := iofault.NewFaulty(iofault.OS)
	d := openDaemonWrites(t, rec, recPath, readIndexFile(t, recPath))
	if serr := d.update(t, batch); serr != nil || d.crashed() {
		t.Fatalf("clean update: %v (crashed %v)", serr, d.crashed())
	}
	d.stop()
	points := rec.Trace()
	if len(points) < 5 || points[0].Op != iofault.OpOpenAppend {
		t.Fatalf("suspicious persist trace: %v", points)
	}

	actions := []iofault.Action{iofault.ActError, iofault.ActTornWrite, iofault.ActCrash}
	for _, p := range points {
		for _, act := range actions {
			t.Run(fmt.Sprintf("%s#%d/%s", p.Op, p.Occurrence, act), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "world.ovmidx")
				if err := persist.WriteIndexAtomic(iofault.OS, path, base); err != nil {
					t.Fatal(err)
				}
				fsys := iofault.NewFaulty(iofault.OS)
				fsys.Inject(p.Op, p.Occurrence, act)
				d := openDaemonWrites(t, fsys, path, readIndexFile(t, path))
				serr := d.update(t, batch)
				// Nothing is promised that is not on disk: a refused batch
				// never becomes visible on the still-running daemon.
				if serr != nil && !d.crashed() {
					if serr.Code != service.CodeInternal {
						t.Errorf("refused with %s, want internal", serr.Code)
					}
					if st := d.svc.StatsSnapshot(); st.Datasets[0].Epoch != 0 {
						t.Errorf("refused batch became visible: live epoch = %d", st.Datasets[0].Epoch)
					}
				}
				d.stop()
				crashed := d.crashed()

				// "Restart": sweep temps, map the checkpoint, replay its WAL.
				for _, p := range []string{path, path + ".wal"} {
					if _, err := persist.CleanStaleTemps(iofault.OS, p); err != nil {
						t.Fatal(err)
					}
				}
				re := readIndexFile(t, path)
				wal, _, err := persist.OpenWAL(iofault.OS, path+".wal")
				if err != nil {
					t.Fatalf("WAL unreadable after the fault: %v", err)
				}
				defer wal.Close()
				if err := wal.Prune(re.BaseEpoch); err != nil {
					t.Fatal(err)
				}
				restarted := service.New(service.Config{})
				defer restarted.Close()
				if err := restarted.AddIndex("world", re); err != nil {
					t.Fatal(err)
				}
				if rem := wal.Pending(); len(rem) > 0 {
					queued := make([]dynamic.Batch, len(rem))
					for i, e := range rem {
						queued[i] = e.Batch
					}
					if serr := restarted.SeedQueued("world", queued, rem[0].Epoch); serr != nil {
						t.Fatal(serr)
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if serr := restarted.WaitIdle(ctx, "world"); serr != nil {
					t.Fatal(serr)
				}
				got, qerr := restarted.SelectSeeds(tortureReq())
				if qerr != nil {
					t.Fatal(qerr)
				}
				if got.Epoch != 0 && got.Epoch != 1 {
					t.Fatalf("restarted epoch = %d: neither old nor new", got.Epoch)
				}
				switch {
				case serr == nil && got.Epoch != 1:
					t.Errorf("the batch was accepted but the restart landed on epoch %d", got.Epoch)
				case serr != nil && !crashed && got.Epoch != 0:
					t.Errorf("the batch was refused but the restart landed on epoch %d", got.Epoch)
				}
				want := baselines[got.Epoch]
				if !sameAnswer(got, want) {
					t.Errorf("epoch %d seeds after restart = %v/%v, want bit-identical %v/%v",
						got.Epoch, got.Seeds, got.ExactValue, want.Seeds, want.ExactValue)
				}
			})
		}
	}
}
