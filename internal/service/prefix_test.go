package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ovm/internal/core"
	"ovm/internal/datasets"
	"ovm/internal/obs"
	"ovm/internal/opinion"
	"ovm/internal/serialize"
	"ovm/internal/service"
	"ovm/internal/voting"
)

const prefixMaxK = 30

// answerBytes is a response up to what a delivery stamps on it: cached,
// elapsedMs and the explain block are dropped, every other byte must match.
func answerBytes(t testing.TB, resp any) []byte {
	t.Helper()
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "explain")
	delete(m, "elapsedMs")
	delete(m, "cached")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// greedyDelta reads the greedy-prefix counters as a delta since before.
type greedyDelta struct{ run, reused, slices, continues int64 }

func greedySince(before obs.CostSnapshot) greedyDelta {
	d := obs.CaptureCosts().Delta(before)
	return greedyDelta{
		run:       d["ovm_greedy_rounds_run_total"],
		reused:    d["ovm_greedy_rounds_reused_total"],
		slices:    d["ovm_greedy_prefix_slices_total"],
		continues: d["ovm_greedy_prefix_continues_total"],
	}
}

// prefixKeys lists the index-served select-seeds keys of the fixture: the
// five scores over the RS sketch artifact plus the cumulative score over the
// RW walk artifact, each at k = 1..prefixMaxK.
func prefixKeys() []*service.SelectSeedsRequest {
	var keys []*service.SelectSeedsRequest
	for k := 1; k <= prefixMaxK; k++ {
		for _, sc := range instanceScores {
			req := selectReq("RS", "", tdTheta)
			req.Score, req.K = sc.spec, k
			keys = append(keys, req)
		}
		rw := selectReq("RW", "cumulative", 0)
		rw.K = k
		keys = append(keys, rw)
	}
	return keys
}

func prefixKeyName(req *service.SelectSeedsRequest) string {
	return fmt.Sprintf("%s/%s/k=%d", req.Method, req.Score.Name, req.K)
}

// aloneAnswers answers every key on a service of its own, which has no
// earlier request to take a prefix from: the from-scratch reference.
func aloneAnswers(t *testing.T, idx *serialize.Index, keys []*service.SelectSeedsRequest) map[string][]byte {
	t.Helper()
	want := make(map[string][]byte, len(keys))
	for _, req := range keys {
		before := obs.CaptureCosts()
		svc := newTestService(t, idx)
		resp, serr := svc.SelectSeeds(req)
		svc.Close()
		if serr != nil {
			t.Fatal(serr)
		}
		if d := greedySince(before); !resp.FromIndex || d != (greedyDelta{run: int64(req.K)}) {
			t.Fatalf("%s alone: fromIndex=%v counters %+v, want a first ask of %d rounds", prefixKeyName(req), resp.FromIndex, d, req.K)
		}
		want[prefixKeyName(req)] = answerBytes(t, resp)
	}
	return want
}

// minSeedsCase is one Problem-2 request whose selector an artifact serves,
// with the answer of the per-probe selectors every probe used to go through:
// each one regenerates its walks and runs all k rounds.
type minSeedsCase struct {
	req    *service.MinSeedsRequest
	seeds  []int32
	canWin bool
}

var minSeedsCasesOnce struct {
	sync.Once
	cases []minSeedsCase
}

// minSeedsCases covers the five scores over the RS artifact and the
// cumulative score over the RW artifact. The references are computed once.
func minSeedsCases(sys *opinion.System) []minSeedsCase {
	minSeedsCasesOnce.Do(func() {
		add := func(method string, spec service.ScoreSpec, score voting.Score, theta int) {
			base := core.Problem{Sys: sys, Horizon: tdHorizon, K: 1, Score: score}
			seeds, err := core.MinSeedsToWin(sys, 0, tdHorizon, score, librarySelector(method, base, theta))
			if err != nil && !errors.Is(err, core.ErrCannotWin) {
				panic(err)
			}
			minSeedsCasesOnce.cases = append(minSeedsCasesOnce.cases, minSeedsCase{
				req: &service.MinSeedsRequest{Dataset: "world", Method: method, Score: spec,
					Horizon: tdHorizon, Seed: tdSeed, Theta: theta},
				seeds: seeds, canWin: err == nil,
			})
		}
		for _, sc := range instanceScores {
			add("RS", sc.spec, sc.score(sys.R()), tdTheta)
		}
		add("RW", instanceScores[0].spec, instanceScores[0].score(sys.R()), 0)
	})
	return minSeedsCasesOnce.cases
}

// TestGreedyPrefixAnyOrderMatchesAlone is the serving side of the prefix
// contract: whatever the order the (score, k) keys of an epoch arrive in —
// ascending (every request continues), descending (every request after the
// first slices), shuffled (both) — each response is byte-identical to a
// fresh service answering that key alone, each greedy round of an
// (artifact, score) runs exactly once, and rounds run + rounds reused is
// exactly Σ k. min-seeds then reads the same prefixes and must match the
// per-probe selectors.
func TestGreedyPrefixAnyOrderMatchesAlone(t *testing.T) {
	sys, idx := testWorld(t)
	keys := prefixKeys()
	want := aloneAnswers(t, idx, keys)
	var sumK int64
	for _, req := range keys {
		sumK += int64(req.K)
	}
	sources := int64(len(instanceScores) + 1) // (artifact, score) pairs among the keys

	orders := map[string][]*service.SelectSeedsRequest{"ascending": keys, "descending": make([]*service.SelectSeedsRequest, len(keys))}
	for i, req := range keys {
		orders["descending"][len(keys)-1-i] = req
	}
	for _, seed := range []int64{42, 7, 99} {
		shuffled := append([]*service.SelectSeedsRequest(nil), keys...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		orders[fmt.Sprintf("shuffled-%d", seed)] = shuffled
	}
	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			svc := newTestService(t, idx)
			defer svc.Close()
			before := obs.CaptureCosts()
			for _, req := range order {
				resp, serr := svc.SelectSeeds(req)
				if serr != nil {
					t.Fatal(serr)
				}
				if got := answerBytes(t, resp); resp.Cached || !bytes.Equal(got, want[prefixKeyName(req)]) {
					t.Fatalf("%s (cached=%v): %s, alone %s", prefixKeyName(req), resp.Cached, got, want[prefixKeyName(req)])
				}
			}
			d := greedySince(before)
			if d.run != sources*prefixMaxK || d.run+d.reused != sumK {
				t.Errorf("rounds run %d reused %d: want %d run (each round once) and %d in total", d.run, d.reused, sources*prefixMaxK, sumK)
			}
			if first := int64(len(order)) - d.slices - d.continues; first != sources {
				t.Errorf("%d slices + %d continues leave %d first asks, want %d", d.slices, d.continues, first, sources)
			}
			switch name {
			case "ascending":
				if d.slices != 0 {
					t.Errorf("ascending order sliced %d times, want 0", d.slices)
				}
			case "descending":
				if d.continues != 0 {
					t.Errorf("descending order continued %d times, want 0", d.continues)
				}
			}

			// Problem 2 on a service that already holds 30-seed prefixes.
			for _, c := range minSeedsCases(sys) {
				got, serr := svc.MinSeedsToWin(c.req)
				if serr != nil {
					t.Fatal(serr)
				}
				if got.CanWin != c.canWin || (c.canWin && !reflect.DeepEqual(got.Seeds, c.seeds)) {
					t.Errorf("min-seeds %s/%s: %v (canWin=%v), per-probe selector %v (%v)",
						c.req.Method, c.req.Score.Name, got.Seeds, got.CanWin, c.seeds, c.canWin)
				}
			}
		})
	}
}

// TestMinSeedsProbesRunEachRoundOnce: on an epoch nobody has queried,
// Algorithm 2's probes 1, 2, 4, … hi then the binary search below hi cost one
// greedy run to the bracket — hi rounds, the smallest power of two holding
// the answer — and every other probe slices. The answer is the per-probe
// selectors' answer, and a later select-seeds at k* is a slice of the same
// seeds.
func TestMinSeedsProbesRunEachRoundOnce(t *testing.T) {
	sys, idx := testWorld(t)
	for _, c := range minSeedsCases(sys) {
		name := c.req.Method + "/" + c.req.Score.Name
		svc := newTestService(t, idx)
		before := obs.CaptureCosts()
		got, serr := svc.MinSeedsToWin(c.req)
		if serr != nil {
			t.Fatal(serr)
		}
		if got.CanWin != c.canWin || (c.canWin && !reflect.DeepEqual(got.Seeds, c.seeds)) {
			t.Fatalf("%s: %v (canWin=%v), per-probe selector %v (%v)", name, got.Seeds, got.CanWin, c.seeds, c.canWin)
		}
		d := greedySince(before)
		bracket := int64(0)
		if got.K > 0 {
			for bracket = 1; bracket < int64(got.K); bracket *= 2 {
			}
		}
		if d.run != bracket {
			t.Errorf("%s: k*=%d cost %d greedy rounds (%+v), want the bracket %d", name, got.K, d.run, d, bracket)
		}
		if got.K > 0 {
			before = obs.CaptureCosts()
			sel, serr := svc.SelectSeeds(&service.SelectSeedsRequest{
				Dataset: "world", Method: c.req.Method, Score: c.req.Score, K: got.K,
				Horizon: tdHorizon, Seed: tdSeed, Theta: c.req.Theta,
			})
			if serr != nil {
				t.Fatal(serr)
			}
			if d := greedySince(before); !reflect.DeepEqual(sel.Seeds, got.Seeds) || d != (greedyDelta{reused: int64(got.K), slices: 1}) {
				t.Errorf("%s: select-seeds at k*=%d gave %v with counters %+v, want a slice equal to %v", name, got.K, sel.Seeds, d, got.Seeds)
			}
		}
		svc.Close()
	}
}

// TestGreedyPrefixConcurrentClients drives three shuffled orders of the keys
// through one service from 8 clients at once, with the response cache off so
// every request computes: racing extensions of one prefix, slices that race
// a publication, value reads that race the evaluation they would have reused,
// and coalesced identical keys must all return the bytes of a service that
// answers the key alone. Every computation counts one value hit or miss,
// every key misses at least once, and a diffusion ran for every miss and for
// every row of a memo build, racing doubles included. Run under -race.
func TestGreedyPrefixConcurrentClients(t *testing.T) {
	sys, idx := testWorld(t)
	keys := prefixKeys()
	want := aloneAnswers(t, idx, keys)
	svc := service.New(service.Config{CacheSize: -1})
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	before := obs.CaptureCosts()
	var wg sync.WaitGroup
	for client := 0; client < 8; client++ {
		order := append([]*service.SelectSeedsRequest(nil), keys...)
		// Clients share three orders, so identical keys also meet in flight.
		rand.New(rand.NewSource([]int64{42, 7, 99}[client%3])).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, req := range order {
				resp, serr := svc.SelectSeeds(req)
				if serr != nil {
					t.Error(serr)
					return
				}
				if got := answerBytes(t, resp); !bytes.Equal(got, want[prefixKeyName(req)]) {
					t.Errorf("%s: %s, alone %s", prefixKeyName(req), got, want[prefixKeyName(req)])
					return
				}
			}
		}()
	}
	wg.Wait()
	d, computations := valuesSince(before), svc.StatsSnapshot().Computations
	if d.hits+d.misses != computations || d.misses < int64(len(keys)) || d.hits == 0 {
		t.Errorf("%+v over %d computations of %d keys: want hits + misses = computations, every key missed once", d, computations, len(keys))
	}
	if want := d.misses + d.rowMisses*int64(sys.R()); d.diffusions != want {
		t.Errorf("%+v: %d diffusions, want one per value miss and %d per memo build = %d", d, d.diffusions, sys.R(), want)
	}
}

// TestGreedyPrefixDiesWithItsEpoch: an update that moves a competitor row,
// the target's opinions and no walk leaves the sketch artifact as it was, yet
// the greedy over it reads the competitor rows and every exact value reads the
// target's seedless trajectory, so epoch N+1 must start from an empty prefix
// and compute from N+1 rows — and a query that fetched epoch N before the swap
// keeps reading epoch N's prefix and trajectory while N+1 fills its own.
func TestGreedyPrefixDiesWithItsEpoch(t *testing.T) {
	sys, idx := testWorld(t)
	drift := func(svc *service.Service) {
		t.Helper()
		applyDrift(t, svc, sys, append(competitorOps(), targetOps(false)...))
	}
	enter, release := make(chan struct{}), make(chan struct{})
	var park atomic.Bool
	cfg := service.Config{}
	cfg.SetComputeContext(func(ctx context.Context) context.Context {
		if park.CompareAndSwap(true, false) {
			close(enter)
			<-release
		}
		return ctx
	})
	svc := service.New(cfg)
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	ask := func(svc *service.Service, k int) *service.SelectSeedsResponse {
		t.Helper()
		req := selectReq("RS", "plurality", tdTheta)
		req.K = k
		resp, serr := svc.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		return resp
	}
	// The references: one never-updated service, one updated before its
	// first query.
	oldEpoch := newTestService(t, idx)
	defer oldEpoch.Close()
	newEpoch := newTestService(t, idx)
	defer newEpoch.Close()
	drift(newEpoch)
	if reflect.DeepEqual(ask(oldEpoch, 10).Seeds, ask(newEpoch, 10).Seeds) {
		t.Fatal("fixture: the drift left the first 10 plurality seeds unchanged")
	}

	ask(svc, 4) // epoch 0 now holds a 4-seed prefix
	// Park a k=10 query after it fetched epoch 0, before it computes.
	park.Store(true)
	pinned := make(chan *service.SelectSeedsResponse, 1)
	go func() {
		req := selectReq("RS", "plurality", tdTheta)
		req.K = 10
		resp, serr := svc.SelectSeeds(req)
		if serr != nil {
			t.Error(serr)
		}
		pinned <- resp
	}()
	<-enter
	drift(svc)

	before := obs.CaptureCosts()
	got := ask(svc, 20)
	if d := greedySince(before); d != (greedyDelta{run: 20}) {
		t.Errorf("first ask of epoch 1: counters %+v, want 20 rounds run from an empty prefix", d)
	}
	if want := ask(newEpoch, 20); got.Epoch != 1 || !bytes.Equal(answerBytes(t, got), answerBytes(t, want)) {
		t.Errorf("epoch 1 k=20: %s, a service updated before its first query %s", answerBytes(t, got), answerBytes(t, want))
	}

	before = obs.CaptureCosts()
	close(release)
	old := <-pinned
	if old == nil {
		t.FailNow()
	}
	if d := greedySince(before); d != (greedyDelta{run: 6, reused: 4, continues: 1}) {
		t.Errorf("query pinned to epoch 0: counters %+v, want a continuation of epoch 0's 4-seed prefix", d)
	}
	if want := ask(oldEpoch, 10); old.Epoch != 0 || !bytes.Equal(answerBytes(t, old), answerBytes(t, want)) {
		t.Errorf("query pinned to epoch 0: %s, a never-updated service %s", answerBytes(t, old), answerBytes(t, want))
	}

	before = obs.CaptureCosts()
	got = ask(svc, 5)
	if d := greedySince(before); d != (greedyDelta{reused: 5, slices: 1}) {
		t.Errorf("epoch 1 k=5: counters %+v, want a slice of epoch 1's prefix", d)
	}
	if want := ask(newEpoch, 5); !bytes.Equal(answerBytes(t, got), answerBytes(t, want)) {
		t.Errorf("epoch 1 k=5: %s, a service updated before its first query %s", answerBytes(t, got), answerBytes(t, want))
	}
}

// TestDeadlineMidContinuationPublishesNothing: a deadline that expires while
// a request is extending the epoch's prefix answers deadline_exceeded (504
// over HTTP) and leaves the prefix as it found it — the same request then
// continues from the same 4 seeds and returns the bytes of a service that
// never saw a deadline.
func TestDeadlineMidContinuationPublishesNothing(t *testing.T) {
	_, idx := testWorld(t)
	for _, par := range []int{1, 4} {
		var polls atomic.Int64 // > 0 arms the next computation
		cfg := service.Config{}
		cfg.SetComputeContext(func(ctx context.Context) context.Context {
			if n := polls.Swap(0); n > 0 {
				c := newCountdown(ctx, n)
				c.err = context.DeadlineExceeded
				return c
			}
			return ctx
		})
		svc := service.New(cfg)
		if err := svc.AddIndex("world", idx); err != nil {
			t.Fatal(err)
		}
		req := selectReq("RS", "copeland", tdTheta)
		req.Parallelism = par
		req.K = 4
		if _, serr := svc.SelectSeeds(req); serr != nil {
			t.Fatal(serr)
		}
		req.K = 12
		before := obs.CaptureCosts()
		polls.Store(4) // SelectGreedy polls once per round: expires in round 4 of 8
		if _, serr := svc.SelectSeeds(req); serr == nil || serr.Code != service.CodeDeadlineExceeded {
			t.Fatalf("P=%d: armed continuation returned %v, want deadline_exceeded", par, serr)
		}
		if d := greedySince(before); d != (greedyDelta{}) {
			t.Errorf("P=%d: the expired continuation moved the greedy counters: %+v", par, d)
		}
		got, serr := svc.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		if d := greedySince(before); d != (greedyDelta{run: 8, reused: 4, continues: 1}) {
			t.Errorf("P=%d: re-query counters %+v, want a continuation from the same 4 seeds", par, d)
		}
		clean := newTestService(t, idx)
		want, serr := clean.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		if got.Cached || !bytes.Equal(answerBytes(t, got), answerBytes(t, want)) {
			t.Errorf("P=%d: re-query (cached=%v) %s, never-cancelled service %s", par, got.Cached, answerBytes(t, got), answerBytes(t, want))
		}
		svc.Close()
		clean.Close()
	}
}

// TestResponseOwnsItsSeeds: a caller that scribbles over resp.Seeds — from a
// computed delivery, a prefix slice or a response-cache hit — cannot change
// what any later request is told.
func TestResponseOwnsItsSeeds(t *testing.T) {
	_, idx := testWorld(t)
	svc := newTestService(t, idx)
	defer svc.Close()
	clean := newTestService(t, idx)
	defer clean.Close()
	ask := func(svc *service.Service, k int) *service.SelectSeedsResponse {
		t.Helper()
		req := selectReq("RS", "borda", tdTheta)
		req.K = k
		resp, serr := svc.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		return resp
	}
	for _, k := range []int{10, 10, 6, 14, 10} { // compute, cache hit, slice, continue, cache hit
		want := answerBytes(t, ask(clean, k))
		resp := ask(svc, k)
		if got := answerBytes(t, resp); !bytes.Equal(got, want) {
			t.Fatalf("k=%d (cached=%v): %s, want %s", k, resp.Cached, got, want)
		}
		for i := range resp.Seeds {
			resp.Seeds[i] = -1
		}
	}
	min := &service.MinSeedsRequest{Dataset: "world", Method: "RS", Score: service.ScoreSpec{Name: "borda"}, Horizon: tdHorizon, Seed: tdSeed, Theta: tdTheta}
	first, serr := svc.MinSeedsToWin(min)
	if serr != nil {
		t.Fatal(serr)
	}
	want := append([]int32(nil), first.Seeds...)
	for i := range first.Seeds {
		first.Seeds[i] = -1
	}
	if again, serr := svc.MinSeedsToWin(min); serr != nil || !again.Cached || !reflect.DeepEqual(again.Seeds, want) {
		t.Errorf("min-seeds after the caller overwrote its seeds: %v (cached=%v, err=%v), want %v", again.Seeds, again.Cached, serr, want)
	}
}

// TestEpochMemoIsBounded: horizon is a request field, the competitor rows and
// the target's trajectory are keyed by it and the trajectory grows with it, so
// a client sweeping 1000 horizons must not pin 1000 of them (here 240 MB) for
// the life of the epoch. The epoch keeps at most its byte budget, the evicted
// values are recomputed on next use, and every answer — during the sweep,
// after it, and from the greedy prefix the sweep evicted — equals the
// from-scratch value. A select-seeds key asked all through the sweep keeps its
// prefix and its value while the rows it was scored from are evicted: it then
// still answers from the two, and does not rebuild rows it would not read.
func TestEpochMemoIsBounded(t *testing.T) {
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const (
		theta    = 64
		horizons = 1000
	)
	// The from-scratch values for every horizon at once: one serial
	// trajectory per candidate, the target's with the seeds applied.
	seeds := []int32{1, 2, 3}
	traj := make([][][]float64, d.Sys.R())
	for q := range traj {
		var applied []int32
		if q == 0 {
			applied = seeds
		}
		if traj[q], err = opinion.Trajectory(context.Background(), d.Sys.Candidate(q), horizons, applied, 1); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := service.BuildIndex(d.Sys, service.BuildOptions{Target: 0, Horizon: tdHorizon, Seed: tdSeed, SketchTheta: theta})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{CacheSize: -1}) // every request computes
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	sel := &service.SelectSeedsRequest{Dataset: "world", Method: "RS", Score: service.ScoreSpec{Name: "plurality"},
		K: 5, Horizon: tdHorizon, Seed: tdSeed, Theta: theta}
	first, serr := svc.SelectSeeds(sel)
	if serr != nil {
		t.Fatal(serr)
	}
	evaluate := func(horizon int) {
		t.Helper()
		got, serr := svc.Evaluate(&service.EvaluateRequest{Dataset: "world", Score: service.ScoreSpec{Name: "cumulative"}, Horizon: horizon, Seeds: seeds})
		if serr != nil {
			t.Fatal(serr)
		}
		B := make([][]float64, len(traj))
		for q := range B {
			B[q] = traj[q][horizon]
		}
		if want := (voting.Cumulative{}).Eval(B, 0); got.Value != want {
			t.Fatalf("horizon %d: %v, from scratch %v", horizon, got.Value, want)
		}
		wins, serr := svc.Wins(&service.EvaluateRequest{Dataset: "world", Score: service.ScoreSpec{Name: "cumulative"}, Horizon: horizon, Seeds: seeds})
		if serr != nil {
			t.Fatal(serr)
		}
		if want := referenceWins(B, voting.Cumulative{}); wins.Wins != want {
			t.Fatalf("horizon %d: wins %v, from scratch %v", horizon, wins.Wins, want)
		}
	}
	kept := &service.SelectSeedsRequest{Dataset: "world", Method: "RS", Score: service.ScoreSpec{Name: "copeland"},
		K: 3, Horizon: tdHorizon, Seed: tdSeed, Theta: theta}
	keptFirst, serr := svc.SelectSeeds(kept)
	if serr != nil {
		t.Fatal(serr)
	}
	for horizon := 0; horizon < horizons; horizon++ {
		evaluate(horizon)
		if b := svc.EpochMemoResident("world"); b > service.EpochMemoBytes {
			t.Fatalf("after horizon %d the epoch holds %d bytes, budget %d", horizon, b, service.EpochMemoBytes)
		}
		if _, serr := svc.SelectSeeds(kept); serr != nil {
			t.Fatal(serr)
		}
	}
	// Full: the next value of the sweep would not have fitted beside the rest.
	largest := int64(8 * d.Sys.N() * (horizons + d.Sys.R()))
	if b := svc.EpochMemoResident("world"); b <= service.EpochMemoBytes-largest || b > service.EpochMemoBytes {
		t.Errorf("after the sweep the epoch holds %d bytes, want the budget %d filled to within one value (%d)", b, service.EpochMemoBytes, largest)
	}
	before := obs.CaptureCosts()
	evaluate(0) // evicted long ago: its evaluate misses, its wins hits
	if c := obs.CaptureCosts().Delta(before); c["ovm_core_competitor_memo_misses_total"] != 1 || c["ovm_core_competitor_memo_hits_total"] != 1 {
		t.Errorf("re-asking an evicted horizon: cost %v, want one miss then one hit", c)
	}
	// The kept key's rows went with the sweep (the next reader of its horizon
	// misses), the key itself costs no memo build and no diffusion.
	before = obs.CaptureCosts()
	keptAgain, serr := svc.SelectSeeds(kept)
	if serr != nil {
		t.Fatal(serr)
	}
	if d := valuesSince(before); d != (valueDelta{hits: 1}) || !bytes.Equal(answerBytes(t, keptAgain), answerBytes(t, keptFirst)) {
		t.Errorf("scored key after its rows were evicted: %+v answer %s, want one value hit equal to %s", d, answerBytes(t, keptAgain), answerBytes(t, keptFirst))
	}
	before = obs.CaptureCosts()
	evaluate(tdHorizon)
	if d := valuesSince(before); d.rowMisses != 1 {
		t.Errorf("fixture: the sweep left the rows of horizon %d resident (%+v)", tdHorizon, d)
	}
	before = obs.CaptureCosts()
	again, serr := svc.SelectSeeds(sel)
	if serr != nil {
		t.Fatal(serr)
	}
	if d := greedySince(before); d != (greedyDelta{run: 5}) || !bytes.Equal(answerBytes(t, again), answerBytes(t, first)) {
		t.Errorf("select after its prefix was evicted: counters %+v answer %s, want a first ask equal to %s", d, answerBytes(t, again), answerBytes(t, first))
	}
}
