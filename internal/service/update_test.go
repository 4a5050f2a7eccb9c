package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"ovm/internal/dynamic"
	"ovm/internal/obs"
	"ovm/internal/opinion"
	"ovm/internal/serialize"
	"ovm/internal/service"
)

// testBatch builds a mutation batch exercising every op kind against the
// test world: edge insert, re-weight, removal of a real edge, plus opinion
// and stubbornness drift on the indexed target candidate.
func testBatch(t *testing.T, idx *serialize.Index) dynamic.Batch {
	t.Helper()
	g := idx.Sys.Candidate(0).G
	edges := g.Edges()
	if len(edges) == 0 {
		t.Fatal("fixture graph has no edges")
	}
	victim := edges[len(edges)/2]
	// Never remove a self-loop that normalization would immediately
	// re-create differently — any real edge works for the test.
	for _, e := range edges {
		if e.From != e.To {
			victim = e
			break
		}
	}
	return dynamic.Batch{
		{Kind: dynamic.OpAddEdge, From: 3, To: 11, W: 0.8},
		{Kind: dynamic.OpAddEdge, From: 17, To: 4, W: 1.2},
		{Kind: dynamic.OpSetWeight, From: 9, To: 21, W: 2},
		{Kind: dynamic.OpRemoveEdge, From: victim.From, To: victim.To},
		{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 33, Value: 0.95},
		{Kind: dynamic.OpSetStubbornness, Cand: 0, Node: 40, Value: 0.15},
	}
}

// rebuiltService is the reference a repaired service must equal: the
// batches replayed onto idx's system offline (dynamic.ReplaySystem) and a
// test-world index built from scratch on the result, served at epoch 0.
// It returns the replayed system too.
func rebuiltService(t *testing.T, idx *serialize.Index, batches []dynamic.Batch) (*service.Service, *opinion.System) {
	t.Helper()
	sys, _, err := dynamic.ReplaySystem(idx.Sys, batches)
	if err != nil {
		t.Fatal(err)
	}
	rebuiltIdx, err := service.BuildIndex(sys, service.BuildOptions{
		Target:       0,
		Horizon:      tdHorizon,
		Seed:         tdSeed,
		SketchTheta:  tdTheta,
		IncludeWalks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return newTestService(t, rebuiltIdx), sys
}

// TestApplyUpdatesMatchesFullRebuild is the dynamic-update determinism
// contract: after a mutation batch, seeds served from the incrementally
// repaired index are byte-identical to seeds from a service whose index was
// rebuilt from scratch on the mutated system — for the DM, RW, RS, and IC
// paths, at parallelism 1, 4, and 0. IC, which no artifact serves, also
// equals the library's answer on the mutated system.
func TestApplyUpdatesMatchesFullRebuild(t *testing.T) {
	_, idx := testWorld(t)
	batch := testBatch(t, idx)

	live := newTestService(t, idx)
	costBefore := obs.CaptureCosts()
	upd, serr := live.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: batch})
	if serr != nil {
		t.Fatal(serr)
	}
	if upd.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", upd.Epoch)
	}
	// What the repair did is on /metrics (no test of this package runs in
	// parallel with this one): it regenerated part of the walks, not none
	// or all of them.
	cost := obs.CaptureCosts().Delta(costBefore)
	seen, invalidated := cost["ovm_repair_walks_seen_total"], cost["ovm_repair_walks_invalidated_total"]
	if seen == 0 || invalidated == 0 || invalidated == seen {
		t.Fatalf("repair regenerated %d of %d walks, want a part of them", invalidated, seen)
	}
	if cost["ovm_dynamic_nodes_touched_total"] == 0 {
		t.Fatal("the batch touched no node on /metrics")
	}

	// The ground truth: apply the same batch offline and rebuild the full
	// index from scratch on the mutated system.
	rebuilt, mutated := rebuiltService(t, idx, []dynamic.Batch{batch})

	for _, method := range []string{"DM", "RW", "RS", "IC"} {
		score := "plurality"
		theta := 0
		if method == "RW" {
			score = "cumulative" // the walk artifact serves the cumulative score
		}
		if method == "RS" {
			theta = tdTheta
		}
		for _, par := range []int{1, 4, 0} {
			req := selectReq(method, score, theta)
			req.Parallelism = par
			a, serr := live.SelectSeeds(req)
			if serr != nil {
				t.Fatalf("%s P=%d live: %v", method, par, serr)
			}
			b, serr := rebuilt.SelectSeeds(req)
			if serr != nil {
				t.Fatalf("%s P=%d rebuilt: %v", method, par, serr)
			}
			if !reflect.DeepEqual(a.Seeds, b.Seeds) || a.ExactValue != b.ExactValue {
				t.Fatalf("%s P=%d: repaired index diverged from rebuild:\n got %v (%.6f)\nwant %v (%.6f)",
					method, par, a.Seeds, a.ExactValue, b.Seeds, b.ExactValue)
			}
			if a.Epoch != 1 {
				t.Fatalf("%s P=%d: live epoch = %d, want 1", method, par, a.Epoch)
			}
			switch method {
			case "RS", "RW":
				if !a.FromIndex {
					t.Fatalf("%s P=%d: repaired artifact was not used", method, par)
				}
			case "IC":
				requireLibraryAnswer(t, mutated, req, a)
			}
		}
	}
}

// TestUpdateLogReplayReachesSameEpoch is the in-file log restart contract:
// write index + update log, load it in a fresh service, and the replayed
// dataset answers identically (same seeds, same epoch) to the service that
// applied the updates live.
func TestUpdateLogReplayReachesSameEpoch(t *testing.T) {
	_, idx := testWorld(t)
	batch1 := testBatch(t, idx)
	batch2 := dynamic.Batch{
		{Kind: dynamic.OpAddEdge, From: 50, To: 60, W: 1},
		{Kind: dynamic.OpSetOpinion, Cand: 1, Node: 8, Value: 0.1},
	}

	live := newTestService(t, idx)
	for _, b := range []dynamic.Batch{batch1, batch2} {
		if _, serr := live.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
			t.Fatal(serr)
		}
	}

	// Persist base artifacts + update log, reload in a "fresh process".
	idx.Updates = []dynamic.Batch{batch1, batch2}
	var buf bytes.Buffer
	if err := serialize.WriteIndexV3(&buf, idx, serialize.V3Options{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := serialize.ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restarted := service.New(service.Config{})
	if err := restarted.AddIndex("world", loaded); err != nil {
		t.Fatal(err)
	}

	for _, method := range []string{"RS", "RW", "IC", "DM"} {
		score, theta := "plurality", 0
		if method == "RW" {
			score = "cumulative"
		}
		if method == "RS" {
			theta = tdTheta
		}
		req := selectReq(method, score, theta)
		a, serr := live.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		b, serr := restarted.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		if !reflect.DeepEqual(a.Seeds, b.Seeds) || a.ExactValue != b.ExactValue {
			t.Fatalf("%s: replayed service diverged from live-updated service", method)
		}
		if a.Epoch != 2 || b.Epoch != 2 {
			t.Fatalf("%s: epochs = %d live / %d replayed, want 2 / 2", method, a.Epoch, b.Epoch)
		}
	}
}

// TestUpdateScopesResponseCache: entries cached before an update must not
// be served afterwards, and the epoch in responses tracks the swap.
func TestUpdateScopesResponseCache(t *testing.T) {
	_, idx := testWorld(t)
	svc := newTestService(t, idx)
	req := selectReq("RS", "plurality", tdTheta)
	first, serr := svc.SelectSeeds(req)
	if serr != nil {
		t.Fatal(serr)
	}
	if first.Cached || first.Epoch != 0 {
		t.Fatalf("first query: cached=%v epoch=%d", first.Cached, first.Epoch)
	}
	warm, serr := svc.SelectSeeds(req)
	if serr != nil {
		t.Fatal(serr)
	}
	if !warm.Cached {
		t.Fatal("repeat query must hit the cache")
	}
	if _, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: testBatch(t, idx)}); serr != nil {
		t.Fatal(serr)
	}
	after, serr := svc.SelectSeeds(req)
	if serr != nil {
		t.Fatal(serr)
	}
	if after.Cached {
		t.Fatal("post-update query must not be served from the pre-update cache")
	}
	if after.Epoch != 1 {
		t.Fatalf("post-update epoch = %d, want 1", after.Epoch)
	}
	if reflect.DeepEqual(after.Seeds, first.Seeds) && after.ExactValue == first.ExactValue {
		// Not strictly impossible, but with 6 mutations on a 120-node world
		// an unchanged answer almost surely means the update was ignored.
		t.Log("warning: seeds unchanged by update (possible but suspicious)")
	}
	st := svc.StatsSnapshot()
	if st.Updates != 1 {
		t.Fatalf("stats report %d updates, want 1", st.Updates)
	}
	if len(st.Datasets) != 1 || st.Datasets[0].Epoch != 1 {
		t.Fatalf("dataset stats epoch = %+v, want 1", st.Datasets)
	}
}

// TestExportIndexCompaction is the log-compaction contract: exporting a
// live dataset yields a self-contained index (empty log, BaseEpoch = the
// dataset's epoch) that reloads to the same epoch, the same answers, and
// the same behavior under further updates — so rebasing a grown update log
// never changes anything observable.
func TestExportIndexCompaction(t *testing.T) {
	_, idx := testWorld(t)
	live := newTestService(t, idx)
	applied := []dynamic.Batch{
		testBatch(t, idx),
		{{Kind: dynamic.OpAddEdge, From: 50, To: 60, W: 1}},
	}
	for _, b := range applied {
		if _, serr := live.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
			t.Fatal(serr)
		}
	}
	exported, serr := live.ExportIndex("world")
	if serr != nil {
		t.Fatal(serr)
	}
	if exported.BaseEpoch != 2 || len(exported.Updates) != 0 {
		t.Fatalf("export gave baseEpoch=%d updates=%d, want 2/0", exported.BaseEpoch, len(exported.Updates))
	}
	var buf bytes.Buffer
	if err := serialize.WriteIndexV3(&buf, exported, serialize.V3Options{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := serialize.ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	compacted := service.New(service.Config{})
	if err := compacted.AddIndex("world", loaded); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		sys, _, err := dynamic.ReplaySystem(idx.Sys, applied)
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range []string{"RS", "RW", "IC"} {
			score, theta := "plurality", tdTheta
			if method == "RW" {
				score = "cumulative"
			}
			if method != "RS" {
				theta = 0
			}
			req := selectReq(method, score, theta)
			a, serr := live.SelectSeeds(req)
			if serr != nil {
				t.Fatal(serr)
			}
			b, serr := compacted.SelectSeeds(req)
			if serr != nil {
				t.Fatal(serr)
			}
			if !reflect.DeepEqual(a.Seeds, b.Seeds) || a.Epoch != b.Epoch || b.FromIndex != (method != "IC") {
				t.Fatalf("%s %s: compacted service diverged (epochs %d/%d, fromIndex=%v)",
					stage, method, a.Epoch, b.Epoch, b.FromIndex)
			}
			if method == "IC" {
				requireLibraryAnswer(t, sys, req, b)
			}
		}
	}
	check("post-compaction")
	// Further updates must stay in lockstep: the rebased artifacts carry
	// the same seeds and substream families.
	next := dynamic.Batch{{Kind: dynamic.OpAddEdge, From: 5, To: 77, W: 0.4}}
	applied = append(applied, next)
	for _, svc := range []*service.Service{live, compacted} {
		resp, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: next})
		if serr != nil {
			t.Fatal(serr)
		}
		if resp.Epoch != 3 {
			t.Fatalf("post-compaction update epoch = %d, want 3", resp.Epoch)
		}
	}
	check("post-compaction-update")
}

// TestConcurrentQueriesDuringUpdates races query traffic against a stream
// of update batches: every response must carry a valid epoch, no query may
// fail, and the epoch observed by queries never runs ahead of the applied
// updates. (The race detector guards the snapshot-swap discipline.)
func TestConcurrentQueriesDuringUpdates(t *testing.T) {
	_, idx := testWorld(t)
	svc := newTestService(t, idx)
	const updates = 3
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, serr := svc.SelectSeeds(selectReq("RS", "plurality", tdTheta))
				if serr != nil {
					t.Errorf("query failed during update: %v", serr)
					return
				}
				if resp.Epoch < 0 || resp.Epoch > updates {
					t.Errorf("query saw impossible epoch %d", resp.Epoch)
					return
				}
			}
		}()
	}
	for i := 0; i < updates; i++ {
		base := int32(10 * (i + 1))
		resp, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: dynamic.Batch{
			{Kind: dynamic.OpAddEdge, From: base, To: base + 1, W: 1},
		}})
		if serr != nil {
			t.Fatal(serr)
		}
		if resp.Epoch != int64(i+1) {
			t.Fatalf("update %d produced epoch %d", i, resp.Epoch)
		}
	}
	close(done)
	wg.Wait()
	final, serr := svc.SelectSeeds(selectReq("RS", "plurality", tdTheta))
	if serr != nil {
		t.Fatal(serr)
	}
	if final.Epoch != updates {
		t.Fatalf("final epoch = %d, want %d", final.Epoch, updates)
	}
}

// TestApplyUpdatesValidation: malformed batches are typed bad requests and
// leave the dataset untouched.
func TestApplyUpdatesValidation(t *testing.T) {
	_, idx := testWorld(t)
	svc := newTestService(t, idx)
	cases := []struct {
		name string
		req  *service.UpdateRequest
	}{
		{"unknown dataset", &service.UpdateRequest{Dataset: "nope", Ops: dynamic.Batch{{Kind: dynamic.OpAddEdge, From: 0, To: 1, W: 1}}}},
		{"empty batch", &service.UpdateRequest{Dataset: "world"}},
		{"bad node", &service.UpdateRequest{Dataset: "world", Ops: dynamic.Batch{{Kind: dynamic.OpAddEdge, From: 0, To: 9999, W: 1}}}},
		{"bad weight", &service.UpdateRequest{Dataset: "world", Ops: dynamic.Batch{{Kind: dynamic.OpAddEdge, From: 0, To: 1, W: -1}}}},
		{"bad candidate", &service.UpdateRequest{Dataset: "world", Ops: dynamic.Batch{{Kind: dynamic.OpSetOpinion, Cand: 99, Node: 0, Value: 0.5}}}},
		{"remove missing", &service.UpdateRequest{Dataset: "world", Ops: dynamic.Batch{{Kind: dynamic.OpRemoveEdge, From: 0, To: 0}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, serr := svc.ApplyUpdates(tc.req)
			if serr == nil {
				t.Fatal("expected error")
			}
			wantCode := service.CodeBadRequest
			if tc.name == "unknown dataset" {
				wantCode = service.CodeNotFound
			}
			if serr.Code != wantCode {
				t.Fatalf("code = %s, want %s", serr.Code, wantCode)
			}
		})
	}
	// The dataset is still at epoch 0 and still serves queries.
	resp, serr := svc.SelectSeeds(selectReq("RS", "plurality", tdTheta))
	if serr != nil {
		t.Fatal(serr)
	}
	if resp.Epoch != 0 {
		t.Fatalf("failed updates must not bump the epoch, got %d", resp.Epoch)
	}
}

// TestUpdatesOverHTTP drives the transport path end to end: the durable
// write (OnEnqueue) has logged the batch at its promised epoch by the time
// the accepted response arrives, and the response carries exactly the
// accept fields.
func TestUpdatesOverHTTP(t *testing.T) {
	_, idx := testWorld(t)
	type logged struct {
		batch dynamic.Batch
		epoch int64
	}
	var mu sync.Mutex
	var log []logged
	svc := service.New(service.Config{
		OnEnqueue: func(dataset string, batch dynamic.Batch, epoch int64) error {
			if dataset != "world" {
				t.Errorf("hook dataset = %q", dataset)
			}
			mu.Lock()
			log = append(log, logged{batch, epoch})
			mu.Unlock()
			return nil
		},
	})
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body, _ := json.Marshal(service.UpdateRequest{Ops: dynamic.Batch{
		{Kind: dynamic.OpAddEdge, From: 1, To: 2, W: 0.5},
	}})
	resp, err := http.Post(srv.URL+"/v1/datasets/world/updates", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var fields map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&fields); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"accepted", "elapsedMs", "epoch", "queueDepth"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("response fields %v, want %v", keys, want)
	}
	if fields["accepted"] != true || fields["epoch"] != float64(1) {
		t.Fatalf("response %v, want accepted at epoch 1", fields)
	}
	mu.Lock()
	if len(log) != 1 || log[0].epoch != 1 || len(log[0].batch) != 1 {
		t.Fatalf("durable write saw %+v, want the batch at epoch 1", log)
	}
	mu.Unlock()
	// Unknown dataset in the path → 404 envelope.
	resp2, err := http.Post(srv.URL+"/v1/datasets/ghost/updates", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset status = %d, want 404", resp2.StatusCode)
	}
}

// TestRepairBuildsOnlyChangedSamplerRows counts what repairs rebuild of the
// target's alias sampler (ovm_sampler_rows_built_total; no test of this
// package runs in parallel with this one): every row on the first repair
// after a load, none for an opinion-only or a stubbornness-only batch, and
// one per changed column (ChangeSet.EdgeTouched) for an edge batch — also
// after a checkpoint is installed, which carries the sampler over to the
// mapped file's graph.
func TestRepairBuildsOnlyChangedSamplerRows(t *testing.T) {
	idx, path := fileWorld(t)
	n := int64(idx.Sys.N())
	heap := newTestService(t, idx)
	filed := openFiled(t, path, 0)
	edges := dynamic.Batch{
		{Kind: dynamic.OpAddEdge, From: 3, To: 11, W: 0.8},
		{Kind: dynamic.OpSetWeight, From: 9, To: 11, W: 2},
		{Kind: dynamic.OpAddEdge, From: 17, To: 4, W: 1.2},
		{Kind: dynamic.OpSetOpinion, Cand: 1, Node: 8, Value: 0.3},
	}
	steps := []struct {
		name  string
		batch dynamic.Batch
		rows  func(*dynamic.ChangeSet) int64
	}{
		{"first repair after a load", dynamic.Batch{{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 33, Value: 0.95}},
			func(*dynamic.ChangeSet) int64 { return n }},
		{"opinion only", dynamic.Batch{{Kind: dynamic.OpSetOpinion, Cand: 1, Node: 5, Value: 0.1}},
			func(*dynamic.ChangeSet) int64 { return 0 }},
		{"stubbornness only", dynamic.Batch{{Kind: dynamic.OpSetStubbornness, Cand: 0, Node: 40, Value: 0.15}},
			func(*dynamic.ChangeSet) int64 { return 0 }},
		{"edges", edges, func(cs *dynamic.ChangeSet) int64 { return int64(len(cs.EdgeTouched)) }},
		{"checkpoint installed", nil, nil},
		{"opinion only after the checkpoint", dynamic.Batch{{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 7, Value: 0.4}},
			func(*dynamic.ChangeSet) int64 { return 0 }},
		{"edges after the checkpoint", dynamic.Batch{{Kind: dynamic.OpRemoveEdge, From: 3, To: 11}},
			func(cs *dynamic.ChangeSet) int64 { return int64(len(cs.EdgeTouched)) }},
	}
	sys := idx.Sys
	for _, st := range steps {
		if st.batch == nil {
			if err := filed.checkpoint(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		next, cs, err := dynamic.ApplySystem(sys, st.batch)
		if err != nil {
			t.Fatal(err)
		}
		sys = next
		want := st.rows(cs)
		for _, svc := range []*service.Service{heap, filed.svc} {
			before := obs.CaptureCosts()
			if _, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: st.batch}); serr != nil {
				t.Fatal(serr)
			}
			if got := obs.CaptureCosts().Delta(before)["ovm_sampler_rows_built_total"]; got != want {
				t.Errorf("%s: %d sampler rows built, want %d", st.name, got, want)
			}
		}
	}
}
