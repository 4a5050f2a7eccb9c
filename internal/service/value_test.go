package service_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"ovm/internal/obs"
	"ovm/internal/opinion"
	"ovm/internal/serialize"
	"ovm/internal/service"
)

// valueDelta reads the counters around the epoch's prefix values as a delta
// since before.
type valueDelta struct{ hits, misses, diffusions, rowMisses int64 }

func valuesSince(before obs.CostSnapshot) valueDelta {
	d := obs.CaptureCosts().Delta(before)
	return valueDelta{
		hits:       d["ovm_greedy_prefix_value_hits_total"],
		misses:     d["ovm_greedy_prefix_value_misses_total"],
		diffusions: d["ovm_opinion_diffusions_total"],
		rowMisses:  d["ovm_core_competitor_memo_misses_total"],
	}
}

// TestPrefixValueScoredOncePerKey: with the response cache off and every
// (artifact, score, k) key sent twice — ascending, descending and shuffled,
// so a key's repeat may follow it directly or arrive after the prefix grew
// past it — each key is evaluated exactly once in the epoch: the diffusions
// are one per distinct key plus the r of the one memo build. Value hits +
// misses is the number of select-seeds computations, the misses are the
// distinct keys, and every response is byte-identical to a fresh service
// answering that key alone.
func TestPrefixValueScoredOncePerKey(t *testing.T) {
	sys, idx := testWorld(t)
	keys := prefixKeys()
	want := aloneAnswers(t, idx, keys)
	twice := append(slices.Clone(keys), keys...)
	byK := func(a, b *service.SelectSeedsRequest) int { return a.K - b.K }

	orders := map[string][]*service.SelectSeedsRequest{
		"ascending":  slices.SortedStableFunc(slices.Values(twice), byK),
		"descending": slices.SortedStableFunc(slices.Values(twice), func(a, b *service.SelectSeedsRequest) int { return byK(b, a) }),
	}
	for _, seed := range []int64{42, 7, 99} {
		shuffled := slices.Clone(twice)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		orders[fmt.Sprintf("shuffled-%d", seed)] = shuffled
	}
	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			svc := service.New(service.Config{CacheSize: -1})
			defer svc.Close()
			if err := svc.AddIndex("world", idx); err != nil {
				t.Fatal(err)
			}
			before := obs.CaptureCosts()
			for _, req := range order {
				resp, serr := svc.SelectSeeds(req)
				if serr != nil {
					t.Fatal(serr)
				}
				if got := answerBytes(t, resp); resp.Cached || !resp.FromIndex || !bytes.Equal(got, want[prefixKeyName(req)]) {
					t.Fatalf("%s (cached=%v fromIndex=%v): %s, alone %s", prefixKeyName(req), resp.Cached, resp.FromIndex, got, want[prefixKeyName(req)])
				}
			}
			d, distinct, computations := valuesSince(before), int64(len(keys)), svc.StatsSnapshot().Computations
			if d.hits+d.misses != computations || computations != int64(len(order)) {
				t.Errorf("value hits %d + misses %d over %d computations of %d requests", d.hits, d.misses, computations, len(order))
			}
			if d.misses != distinct || d.rowMisses != 1 || d.diffusions != distinct+int64(sys.R()) {
				t.Errorf("%+v: want %d misses (one per key), one memo build and %d diffusions", d, distinct, distinct+int64(sys.R()))
			}
		})
	}
}

// TestPrefixValueDiesWithItsEpoch: a batch that moves only the target's
// opinions leaves the graph as it was, yet every exact value reads the
// target's trajectory. The key the old epoch had scored is evaluated again in
// the new one, and answers what a service updated before its first query does.
func TestPrefixValueDiesWithItsEpoch(t *testing.T) {
	sys, idx := testWorld(t)
	svc := service.New(service.Config{CacheSize: -1})
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	updatedFirst := newTestService(t, idx)
	defer updatedFirst.Close()
	applyDrift(t, updatedFirst, sys, targetOps(false))

	req := selectReq("RS", "plurality", tdTheta)
	ask := func(svc *service.Service) *service.SelectSeedsResponse {
		t.Helper()
		resp, serr := svc.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		return resp
	}
	old := ask(svc)
	before := obs.CaptureCosts()
	if again := ask(svc); valuesSince(before) != (valueDelta{hits: 1}) || !bytes.Equal(answerBytes(t, again), answerBytes(t, old)) {
		t.Fatalf("epoch 0 repeat: %+v %s, want one value hit equal to %s", valuesSince(before), answerBytes(t, again), answerBytes(t, old))
	}

	applyDrift(t, svc, sys, targetOps(false))
	before = obs.CaptureCosts()
	got, want := ask(svc), ask(updatedFirst)
	if d := valuesSince(before); d != (valueDelta{misses: 2, rowMisses: 2, diffusions: 2 * int64(sys.R()+1)}) {
		t.Errorf("first ask of epoch 1 on both services: %+v, want each to build its rows and evaluate", d)
	}
	if got.Epoch != 1 || !bytes.Equal(answerBytes(t, got), answerBytes(t, want)) {
		t.Errorf("epoch 1: %s, a service updated before its first query %s", answerBytes(t, got), answerBytes(t, want))
	}
	if got.ExactValue == old.ExactValue {
		t.Fatal("fixture: the drift left the key's exact value unchanged")
	}
}

// TestDeadlineMidEvaluationPublishesNoValue: the request is a slice of a
// prefix the epoch holds, at a k it has not scored, so the only cancellation
// points left are the steps of its one diffusion. The deadline expires in the
// third: no diffusion completes, the memo holds what it held, no value is
// counted, and the retry evaluates (a miss, not a hit) to the bytes of a
// service that never saw a deadline.
func TestDeadlineMidEvaluationPublishesNoValue(t *testing.T) {
	for name, world := range map[string]func(testing.TB) (*opinion.System, *serialize.Index){"dense": testWorld, "sparse": sparseWorld} {
		t.Run(name, func(t *testing.T) {
			_, idx := world(t)
			var polls atomic.Int64 // > 0 arms the next computation
			cfg := service.Config{CacheSize: -1}
			cfg.SetComputeContext(func(ctx context.Context) context.Context {
				if n := polls.Swap(0); n > 0 {
					c := newCountdown(ctx, n)
					c.err = context.DeadlineExceeded
					return c
				}
				return ctx
			})
			svc := service.New(cfg)
			defer svc.Close()
			if err := svc.AddIndex("world", idx); err != nil {
				t.Fatal(err)
			}
			req := selectReq("RS", "copeland", tdTheta)
			req.K = 12
			if _, serr := svc.SelectSeeds(req); serr != nil {
				t.Fatal(serr)
			}
			req.K = 8
			resident := svc.EpochMemoResident("world")
			before := obs.CaptureCosts()
			polls.Store(3)
			if _, serr := svc.SelectSeeds(req); serr == nil || serr.Code != service.CodeDeadlineExceeded {
				t.Fatalf("armed slice returned %v, want deadline_exceeded", serr)
			}
			if d := valuesSince(before); d != (valueDelta{}) {
				t.Errorf("under the expired deadline: %+v, want no diffusion completed and no value counted", d)
			}
			if b := svc.EpochMemoResident("world"); b != resident {
				t.Errorf("the epoch memo went from %d to %d bytes under the expired deadline", resident, b)
			}
			got, serr := svc.SelectSeeds(req)
			if serr != nil {
				t.Fatal(serr)
			}
			if d := valuesSince(before); d != (valueDelta{misses: 1, diffusions: 1}) {
				t.Errorf("retry: %+v, want one miss evaluated by one diffusion", d)
			}
			clean := newTestService(t, idx)
			defer clean.Close()
			want, serr := clean.SelectSeeds(req)
			if serr != nil {
				t.Fatal(serr)
			}
			if got.Cached || !bytes.Equal(answerBytes(t, got), answerBytes(t, want)) {
				t.Errorf("retry (cached=%v) %s, never-cancelled service %s", got.Cached, answerBytes(t, got), answerBytes(t, want))
			}
		})
	}
}

// TestPrefixValueSweepIsAccounted: k is a request field, so a client sweeping
// k = 1..n stores n values under one score. Each must weigh what its memo
// entry pins, not its 8 value bytes: every first ask grows the resident bytes
// by at least the per-entry overhead, a repeat grows them by nothing, and the
// epoch stays inside its budget.
func TestPrefixValueSweepIsAccounted(t *testing.T) {
	sys, idx := testWorld(t)
	svc := service.New(service.Config{CacheSize: -1})
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	req := selectReq("RS", "plurality", tdTheta)
	for req.K = 1; req.K <= sys.N(); req.K++ {
		resident := svc.EpochMemoResident("world")
		for _, grows := range []bool{true, false} {
			if _, serr := svc.SelectSeeds(req); serr != nil {
				t.Fatal(serr)
			}
			b := svc.EpochMemoResident("world")
			if grew := b - resident; (grew >= service.PrefixValueOverhead) != grows || (!grows && grew != 0) {
				t.Fatalf("k=%d (first ask %v): the epoch memo grew %d bytes, a value weighs at least %d", req.K, grows, grew, service.PrefixValueOverhead)
			}
			if b > service.EpochMemoBytes {
				t.Fatalf("k=%d: the epoch holds %d bytes, budget %d", req.K, b, service.EpochMemoBytes)
			}
			resident = b
		}
	}
	if b, least := svc.EpochMemoResident("world"), int64(sys.N())*service.PrefixValueOverhead; b < least {
		t.Errorf("after the sweep the epoch holds %d bytes, its %d values alone weigh %d", b, sys.N(), least)
	}
}
