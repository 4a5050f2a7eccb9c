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
	for _, method := range []string{"RS", "RW"} {
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
// service layer: when the persistence hook fails, the update must not become
// visible — the epoch stays, and queries keep answering on the old dataset.
func TestPersistFailureKeepsOldEpoch(t *testing.T) {
	_, idx := testWorld(t)
	cfg := service.Config{
		OnUpdate: func(string, []dynamic.Batch, int64) error {
			return fmt.Errorf("disk on fire")
		},
	}
	svc := service.New(cfg)
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	before, serr := svc.SelectSeeds(selectReq("RS", "plurality", 0))
	if serr != nil {
		t.Fatal(serr)
	}
	_, serr = svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: testBatch(t, idx)})
	if serr == nil {
		t.Fatal("update must fail when persistence fails")
	}
	st := svc.StatsSnapshot()
	if len(st.Datasets) != 1 || st.Datasets[0].Epoch != 0 {
		t.Fatalf("epoch after failed persist = %+v, want 0", st.Datasets)
	}
	svc.ResetCache()
	after, serr := svc.SelectSeeds(selectReq("RS", "plurality", 0))
	if serr != nil {
		t.Fatal(serr)
	}
	if !reflect.DeepEqual(after.Seeds, before.Seeds) || after.ExactValue != before.ExactValue || after.Epoch != 0 {
		t.Errorf("answers changed after a failed persist: %v/%v epoch %d, want %v/%v epoch 0",
			after.Seeds, after.ExactValue, after.Epoch, before.Seeds, before.ExactValue)
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

// ovmdOnUpdate replicates the daemon's persist-before-swap hook: append the
// batch to the file's update log, rewrite atomically, roll back the
// in-memory log on failure.
func ovmdOnUpdate(fsys iofault.FS, path string, idx *serialize.Index) func(string, []dynamic.Batch, int64) error {
	return func(_ string, batches []dynamic.Batch, _ int64) error {
		n0 := len(idx.Updates)
		idx.Updates = append(idx.Updates, batches...)
		if err := persist.WriteIndexAtomic(fsys, path, idx); err != nil {
			idx.Updates = idx.Updates[:n0]
			return err
		}
		return nil
	}
}

// TestUpdatePersistCrashTorture sweeps every file operation of the
// update-log persist sequence with an error, a torn write, and a simulated
// crash. After each fault the "daemon" restarts from the file: the index
// must parse (never a torn in-between), land on the old or the new epoch,
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
		if resp.Epoch != epoch {
			t.Fatalf("baseline epoch = %d, want %d", resp.Epoch, epoch)
		}
		baselines[epoch] = resp
	}

	// Recording pass: enumerate the injection points of one clean persist.
	recPath := filepath.Join(t.TempDir(), "world.ovmidx")
	if err := persist.WriteIndexAtomic(iofault.OS, recPath, base); err != nil {
		t.Fatal(err)
	}
	rec := iofault.NewFaulty(iofault.OS)
	{
		loaded := readIndexFile(t, recPath)
		svc := service.New(service.Config{OnUpdate: ovmdOnUpdate(rec, recPath, loaded)})
		if err := svc.AddIndex("world", loaded); err != nil {
			t.Fatal(err)
		}
		if _, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: batch}); serr != nil {
			t.Fatal(serr)
		}
	}
	points := rec.Trace()
	if len(points) < 5 {
		t.Fatalf("suspiciously short persist trace: %v", points)
	}

	actions := []iofault.Action{iofault.ActError, iofault.ActTornWrite, iofault.ActCrash}
	for _, p := range points {
		for _, act := range actions {
			t.Run(fmt.Sprintf("%s#%d/%s", p.Op, p.Occurrence, act), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "world.ovmidx")
				if err := persist.WriteIndexAtomic(iofault.OS, path, base); err != nil {
					t.Fatal(err)
				}
				loaded := readIndexFile(t, path)
				fsys := iofault.NewFaulty(iofault.OS)
				fsys.Inject(p.Op, p.Occurrence, act)
				svc := service.New(service.Config{OnUpdate: ovmdOnUpdate(fsys, path, loaded)})
				if err := svc.AddIndex("world", loaded); err != nil {
					t.Fatal(err)
				}

				var serr *service.Error
				crashed := false
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(*iofault.Crash); !ok {
								panic(r)
							}
							crashed = true
						}
					}()
					_, serr = svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: batch})
				}()

				// Persist-before-swap: an update that reported an error must
				// not have become visible on the still-running daemon.
				if !crashed && serr != nil {
					if st := svc.StatsSnapshot(); st.Datasets[0].Epoch != 0 {
						t.Errorf("failed persist swapped anyway: live epoch = %d", st.Datasets[0].Epoch)
					}
				}

				// "Restart": sweep temps, reload the file, replay its log.
				if _, err := persist.CleanStaleTemps(iofault.OS, path); err != nil {
					t.Fatal(err)
				}
				re := readIndexFile(t, path)
				restarted := service.New(service.Config{})
				if err := restarted.AddIndex("world", re); err != nil {
					t.Fatal(err)
				}
				got, qerr := restarted.SelectSeeds(tortureReq())
				if qerr != nil {
					t.Fatal(qerr)
				}
				if got.Epoch != 0 && got.Epoch != 1 {
					t.Fatalf("restarted epoch = %d: neither old nor new", got.Epoch)
				}
				if !crashed && serr == nil && got.Epoch != 1 {
					t.Errorf("update reported success but the restart landed on epoch %d", got.Epoch)
				}
				want := baselines[got.Epoch]
				if !reflect.DeepEqual(got.Seeds, want.Seeds) || got.ExactValue != want.ExactValue {
					t.Errorf("epoch %d seeds after restart = %v/%v, want bit-identical %v/%v",
						got.Epoch, got.Seeds, got.ExactValue, want.Seeds, want.ExactValue)
				}
			})
		}
	}
}
