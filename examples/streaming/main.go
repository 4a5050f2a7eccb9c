// Streaming: a p-approval / positional-p-approval scenario from the
// paper's introduction — users hold memberships of up to p streaming
// platforms, and platforms prefer being ranked higher because users buy
// premium tiers only for their favourites.
//
// This example runs the scenario the way a production deployment would:
// build the world once, precompute a serving index (ovm.BuildIndex), start
// an ovmd-style daemon on a loopback port, and then act as an HTTP client —
// issuing the three campaign queries over the wire, re-issuing one to show
// the response cache, and checking /stats. Every seed set returned by the
// daemon is bit-identical to the direct ovm.SelectSeeds call.
//
// The market then goes live: three "days" of mutations (viewers drifting
// toward rival platforms, new follow edges) are POSTed to the running
// daemon via /v1/datasets/{name}/updates. The daemon accepts each batch
// with the epoch it will become visible at and repairs the sketch index in
// the background (only invalidated walks regenerate); the queries that
// follow pass that epoch as minEpoch, so they read the write. The current
// market winner is tracked flipping over time — with the post-update
// answers still byte-identical to a direct library call on the mutated
// system. The example exits 1 if either cross-check fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"ovm"
)

func main() {
	const (
		n       = 3000
		k       = 40
		horizon = 15
		seed    = 11
		theta   = 8192 // sketch count precomputed into the index
	)
	platforms := []string{"NordStream", "FlixHub", "PrimeView", "CineMax", "DocuPlus", "AnimeBay"}

	sys := buildWorld(n, seed, platforms)
	target := 0 // NordStream runs the campaign

	// Precompute the serving index once — this is what `ovmd -build-index`
	// persists to disk; here it stays in memory.
	buildStart := time.Now()
	idx, err := ovm.BuildIndex(sys, ovm.IndexBuildOptions{
		Target:      target,
		Horizon:     horizon,
		Seed:        seed,
		SketchTheta: theta,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index built in %s (1 sketch artifact, θ=%d)\n", time.Since(buildStart).Round(time.Millisecond), theta)

	// Start the daemon on a loopback port.
	svc := ovm.NewQueryService(ovm.QueryServiceConfig{})
	if err := svc.AddIndex("streaming", idx); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("ovmd serving on %s\n\n", base)

	fmt.Printf("market: %d users, %d platforms; campaign by %q, horizon t=%d\n",
		n, len(platforms), platforms[target], horizon)

	// Three campaign objectives, same budget: the chosen influencers shift
	// as the objective counts second and third memberships (Fig 9's point).
	objectives := []struct {
		label string
		score ovm.ScoreSpec
	}{
		{"plurality (favourite only)", ovm.ScoreSpec{Name: "plurality"}},
		{"2-approval (any top-2 membership)", ovm.ScoreSpec{Name: "p-approval", P: 2}},
		{"positional-2 (premium tiers favour rank 1)", ovm.ScoreSpec{Name: "positional", P: 2, Omega: []float64{1, 0.4}}},
	}
	fmt.Printf("\nselecting k=%d influencers via HTTP (RS sketches from the index):\n", k)
	var pluralitySeeds []int32
	for i, obj := range objectives {
		resp := postSelect(base, &ovm.SelectSeedsRequest{
			Dataset: "streaming",
			Method:  "RS",
			Score:   obj.score,
			K:       k,
			Horizon: horizon,
			Target:  target,
			Seed:    seed,
			Theta:   theta,
		})
		if i == 0 {
			pluralitySeeds = resp.Seeds
		}
		fmt.Printf("  %-44s score %8.1f  fromIndex=%-5v %6.1fms  overlap w/ plurality seeds %4.0f%%\n",
			obj.label, resp.ExactValue, resp.FromIndex, resp.ElapsedMs, overlapPct(resp.Seeds, pluralitySeeds))
	}

	// The same query again: served from the LRU cache, microseconds.
	again := postSelect(base, &ovm.SelectSeedsRequest{
		Dataset: "streaming", Method: "RS", Score: ovm.ScoreSpec{Name: "plurality"},
		K: k, Horizon: horizon, Target: target, Seed: seed, Theta: theta,
	})
	fmt.Printf("\nrepeat plurality query: cached=%v in %.3fms\n", again.Cached, again.ElapsedMs)

	// Cross-check the daemon against the direct library call.
	opts := &ovm.SelectOptions{Seed: seed}
	opts.RS.FixedTheta = theta
	direct, err := ovm.SelectSeeds(&ovm.Problem{
		Sys: sys, Target: target, Horizon: horizon, K: k, Score: ovm.Plurality(),
	}, ovm.MethodRS, opts)
	if err != nil {
		log.Fatal(err)
	}
	sameAtStart := equalSeeds(direct.Seeds, pluralitySeeds) && direct.ExactValue == again.ExactValue
	fmt.Printf("daemon == direct library result: %v\n", sameAtStart)

	var stats ovm.ServiceStats
	getJSON(base+"/stats", &stats)
	fmt.Printf("daemon stats: %d requests, %d computed, cache hit rate %.0f%%\n",
		stats.Requests, stats.Computations, 100*stats.CacheHitRate)

	// ------------------------------------------------------------------
	// The market goes live: viewers churn, follows appear, and the daemon
	// absorbs it all through POST /v1/datasets/streaming/updates — no
	// rebuild, no restart, monotonic epochs.
	// ------------------------------------------------------------------
	fmt.Printf("\n-- live market: three days of churn --\n")
	fmt.Printf("day 0 (epoch 0): winner by plurality is %s\n",
		platforms[marketWinner(base, len(platforms), horizon, 0)])

	var applied []ovm.UpdateBatch
	var epoch int64 // the epoch the last accepted batch was promised
	for day := 1; day <= 3; day++ {
		rival := day % len(platforms) // today's surging platform
		batch := churnBatch(n, day, rival)
		epoch = postUpdates(base, "streaming", batch).Epoch
		applied = append(applied, batch)
		win := marketWinner(base, len(platforms), horizon, epoch)
		fmt.Printf("day %d (epoch %d): %4d ops → winner %s\n", day, epoch, len(batch), platforms[win])
	}

	// The campaign re-plans on the mutated market: the repaired sketch
	// index still serves (fromIndex), at the new epoch, and the answer is
	// byte-identical to a direct library call on the same mutated system.
	postMutation := postSelect(base, &ovm.SelectSeedsRequest{
		Dataset: "streaming", Method: "RS", Score: ovm.ScoreSpec{Name: "plurality"},
		K: k, Horizon: horizon, Target: target, Seed: seed, Theta: theta, MinEpoch: epoch,
	})
	fmt.Printf("\nre-planned campaign at epoch %d: fromIndex=%v, %.1fms, overlap with day-0 seeds %.0f%%\n",
		postMutation.Epoch, postMutation.FromIndex, postMutation.ElapsedMs, overlapPct(postMutation.Seeds, pluralitySeeds))

	mutatedSys, _, err := ovm.ReplayUpdates(sys, applied)
	if err != nil {
		log.Fatal(err)
	}
	directMut, err := ovm.SelectSeeds(&ovm.Problem{
		Sys: mutatedSys, Target: target, Horizon: horizon, K: k, Score: ovm.Plurality(),
	}, ovm.MethodRS, opts)
	if err != nil {
		log.Fatal(err)
	}
	sameAfterUpdates := equalSeeds(directMut.Seeds, postMutation.Seeds) && directMut.ExactValue == postMutation.ExactValue
	fmt.Printf("daemon (incremental repair) == direct library on mutated graph: %v\n", sameAfterUpdates)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	svc.Close()
	if !sameAtStart || !sameAfterUpdates {
		fmt.Fprintln(os.Stderr, "the daemon's answers differ from the direct library call")
		os.Exit(1)
	}
}

// churnBatch synthesizes one day of market churn: a block of viewers drifts
// hard toward the rival platform (opinion + stubbornness), and a handful of
// new follow edges route influence into the drifted block.
func churnBatch(n, day, rival int) ovm.UpdateBatch {
	var batch ovm.UpdateBatch
	lo := (day * 700) % n
	for i := 0; i < 400; i++ {
		v := int32((lo + i) % n)
		batch = append(batch,
			ovm.UpdateOp{Kind: ovm.OpSetOpinion, Cand: rival, Node: v, Value: 0.99},
			ovm.UpdateOp{Kind: ovm.OpSetStubbornness, Cand: rival, Node: v, Value: 0.9},
		)
	}
	for i := 0; i < 10; i++ {
		from := int32((lo + i) % n)
		to := int32((lo + 400 + 31*i) % n)
		if from != to {
			batch = append(batch, ovm.UpdateOp{Kind: ovm.OpAddEdge, From: from, To: to, W: 1})
		}
	}
	return batch
}

// marketWinner asks the daemon for every platform's seedless plurality
// score at minEpoch or later and returns the argmax — the platform winning
// the vote.
func marketWinner(base string, platforms, horizon int, minEpoch int64) int {
	best, bestScore := 0, -1.0
	for q := 0; q < platforms; q++ {
		var resp ovm.EvaluateResponse
		postJSON(base+"/v1/evaluate", &ovm.EvaluateRequest{
			Dataset: "streaming", Score: ovm.ScoreSpec{Name: "plurality"},
			Horizon: horizon, Target: q, MinEpoch: minEpoch,
		}, &resp)
		if resp.Value > bestScore {
			best, bestScore = q, resp.Value
		}
	}
	return best
}

func postUpdates(base, dataset string, batch ovm.UpdateBatch) *ovm.ApplyUpdatesResponse {
	var resp ovm.ApplyUpdatesResponse
	postJSON(base+"/v1/datasets/"+dataset+"/updates", &ovm.ApplyUpdatesRequest{Ops: batch}, &resp)
	return &resp
}

// buildWorld synthesizes the streaming market: a preferential-attachment
// friendship graph, six platform candidates with taste-driven initial
// opinions, and partially stubborn users.
func buildWorld(n int, seed int64, platforms []string) *ovm.System {
	edges, err := ovm.PreferentialAttachmentEdges(n, 5, seed)
	if err != nil {
		log.Fatal(err)
	}
	g, err := ovm.FromEdges(n, edges)
	if err != nil {
		log.Fatal(err)
	}
	// Each platform has a genre profile; each user a taste vector.
	r := rand.New(rand.NewSource(seed))
	const genres = 4
	taste := make([][]float64, n)
	for v := range taste {
		taste[v] = make([]float64, genres)
		for i := range taste[v] {
			taste[v][i] = r.Float64()
		}
	}
	cands := make([]*ovm.Candidate, len(platforms))
	for q, name := range platforms {
		profile := make([]float64, genres)
		for i := range profile {
			profile[i] = r.Float64()
		}
		init := make([]float64, n)
		stub := make([]float64, n)
		for v := 0; v < n; v++ {
			dot, norm := 0.0, 0.0
			for i := 0; i < genres; i++ {
				dot += taste[v][i] * profile[i]
				norm += profile[i] * profile[i]
			}
			init[v] = clamp(dot / (norm + 1))
			stub[v] = 0.2 + 0.6*r.Float64() // partially stubborn viewers
		}
		cands[q] = &ovm.Candidate{Name: name, G: g, Init: init, Stub: stub}
	}
	sys, err := ovm.NewSystem(cands)
	if err != nil {
		log.Fatal(err)
	}
	return sys
}

func postSelect(base string, req *ovm.SelectSeedsRequest) *ovm.SelectSeedsResponse {
	var resp ovm.SelectSeedsResponse
	postJSON(base+"/v1/select-seeds", req, &resp)
	return &resp
}

// postJSON posts a JSON request body and decodes the JSON response into
// out, failing loudly on any transport or application error.
func postJSON(url string, req, out any) {
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	httpResp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		var e map[string]any
		_ = json.NewDecoder(httpResp.Body).Decode(&e)
		log.Fatalf("%s: HTTP %d: %v", url, httpResp.StatusCode, e)
	}
	if err := json.NewDecoder(httpResp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}

func clamp(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func equalSeeds(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func overlapPct(a, b []int32) float64 {
	if len(a) == 0 {
		return 0
	}
	set := map[int32]bool{}
	for _, v := range b {
		set[v] = true
	}
	c := 0
	for _, v := range a {
		if set[v] {
			c++
		}
	}
	return 100 * float64(c) / float64(len(a))
}
