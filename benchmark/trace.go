package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"ovm/internal/core"
	"ovm/internal/dynamic"
	"ovm/internal/graph"
	"ovm/internal/iofault"
	"ovm/internal/opinion"
	"ovm/internal/persist"
	"ovm/internal/rwalk"
	"ovm/internal/sampling"
	"ovm/internal/serialize"
	"ovm/internal/service"
	"ovm/internal/sketch"
	"ovm/internal/walks"
)

// The traced run. It replays a prefix of the streams the live run sent,
// in this process, and records a span around each call it makes into a
// layer's public functions. Nothing inside the program is instrumented:
// a layer's time is taken by calling it again with the same inputs, so the
// per-layer numbers are re-executions and the residual against the
// service call that contains them is part of the result.

// span is one timed call. Spans of one request or batch share Request.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: a root
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the replay began
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. With on false it still
// times, which is how the tracing overhead is measured.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// do runs fn inside a span and returns how long it took.
func (t *tracer) do(name string, parent, request int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if t.on {
		t.spans = append(t.spans, span{len(t.spans) + 1, parent, request, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	}
	return end.Sub(start)
}

// open starts a span whose children run before it is closed.
func (t *tracer) open(name string, request int) (id int, close func()) {
	if !t.on {
		return 0, func() {}
	}
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Request: request, Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	return id, func() { t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds() }
}

func serviceScore(sc scoreSpec) service.ScoreSpec { return service.ScoreSpec{Name: sc.Name, P: sc.P} }

func selectReq(k request) *service.SelectSeedsRequest {
	return &service.SelectSeedsRequest{Dataset: servedDataset, Method: "RS", Score: serviceScore(k.Score), K: k.K, Horizon: horizon, Target: target, Seed: indexSeed}
}

func evalReq(k request) *service.EvaluateRequest {
	return &service.EvaluateRequest{Dataset: servedDataset, Score: serviceScore(k.Score), Horizon: horizon, Target: target, Seeds: k.Seeds}
}

// replayKeys picks the select-seeds keys to replay: the stream's order,
// but with the first key of every score moved to the front so that a short
// prefix still covers all five.
func replayKeys(keys []request, limit int) []request {
	var first, rest []request
	seen := make(map[string]bool)
	for _, k := range keys {
		if k.Path != "/v1/select-seeds" {
			continue
		}
		if !seen[k.Score.Name] {
			seen[k.Score.Name] = true
			first = append(first, k)
		} else {
			rest = append(rest, k)
		}
	}
	out := append(first, rest...)
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// replay is the state of one traced run: the served index, this replay's
// own copy of its artifacts for the direct layer calls, and what has been
// measured so far.
type replay struct {
	res  *result
	w    workload
	tr   *tracer
	unit map[string]string    // per-layer metric name to unit
	lat  map[string][]float64 // samples per metric; the median is reported
	req  int                  // last request id handed out

	path    string   // the index file the replay serves and logs into
	sv      *serving // async service with the WAL and persist hooks, as ovmd runs it
	syncSvc *service.Service
	idx     *serialize.Index
	sys     *opinion.System // advances with every replayed batch
	comp    [][]float64
	sketch  *walks.Set
	walks   *walks.Set // nil when the index stores no RW walk set
	selects []request
	batches []dynamic.Batch // replayed so far
}

func (r *replay) add(name string, v float64) { r.lat[name] = append(r.lat[name], v) }

// once reports a layer that is measured a single time per run.
func (r *replay) once(name string, v float64) { r.res.set(name, v, r.unit[name], 1) }

func (r *replay) nextRequest() int { r.req++; return r.req }

// runTraced fills in the per-layer times of res and writes the span file.
func runTraced(res *result, w workload, sh shape, dir string) error {
	r := &replay{
		res: res, w: w,
		tr:   &tracer{on: true, t0: time.Now()},
		unit: make(map[string]string), lat: make(map[string][]float64),
		path:    filepath.Join(dir, "trace-"+w.Name+".ovmidx"),
		selects: replayKeys(res.keys, sh.TraceReqs),
	}
	for _, d := range perLayer {
		r.unit[d.Name] = d.Unit
	}
	scratch := []string{r.path, r.path + ".wal", r.path + ".scratch", r.path + ".scratch.wal"}
	for _, f := range scratch {
		_ = os.Remove(f)
		defer os.Remove(f)
	}
	defer func() {
		if r.sv != nil {
			r.sv.Close()
		}
		if r.syncSvc != nil {
			r.syncSvc.Close()
		}
	}()
	if err := r.load(); err != nil {
		return err
	}
	for _, step := range []func() error{r.staticLayers, r.queries, r.hits, r.overhead} {
		if err := step(); err != nil {
			return err
		}
	}
	if err := r.writes(newBatchGen(w.writeKind(), res.Seed, w.N), sh.TraceOps); err != nil {
		return err
	}
	if err := r.restartCost(); err != nil {
		return err
	}
	for name, xs := range r.lat {
		res.set(name, median(xs), r.unit[name], len(xs))
	}
	residuals(res, w)
	return writeSpans(filepath.Join(dir, "trace-"+w.Name+".json"), w.Name, r.tr.spans)
}

// load builds the index and opens it the way ovmd does, timing each set-up
// layer once, then restores the same artifacts for the direct layer calls.
func (r *replay) load() error {
	synth, build, write, err := buildIndexInProcess(r.w, r.path)
	if err != nil {
		return err
	}
	r.once("datasets.synthesize_ms", ms(synth))
	r.once("service.build_index_ms", ms(build))
	r.once("serialize.write_v3_ms", ms(write))
	if r.sv, err = openServing(r.path, r.w.Cache); err != nil {
		return err
	}
	r.once("serialize.open_mapped_ms", ms(r.sv.openMapped))
	r.once("service.add_index_ms", ms(r.sv.addIndex))
	r.idx = r.sv.mi.Index
	r.sys = r.idx.Sys
	g := r.sys.Candidate(target).G
	restore := func(snap *walks.Snapshot, is *walks.IndexSnapshot) (*walks.Set, error) {
		set, err := walks.FromSnapshot(g, snap)
		if err != nil {
			return nil, err
		}
		if is == nil || set.AdoptIndex(is) != nil {
			set.EnsureIndex()
		}
		return set, nil
	}
	if r.sketch, err = restore(r.idx.Sketches[0].Set, r.idx.Sketches[0].Index); err != nil {
		return err
	}
	if len(r.idx.Walks) > 0 {
		if r.walks, err = restore(r.idx.Walks[0].Set, r.idx.Walks[0].Index); err != nil {
			return err
		}
	}
	// A second, synchronous service on the same index times one whole
	// repair per batch (ApplyUpdates) without the queue in front of it.
	r.syncSvc = service.New(service.Config{CacheSize: r.w.Cache})
	return r.syncSvc.AddIndex(servedDataset, r.idx)
}

// staticLayers times the calls that depend on the index alone.
func (r *replay) staticLayers() error {
	sys, cand := r.sys, r.sys.Candidate(target)
	g, n := cand.G, r.sys.N()
	var err error
	d := r.tr.do("core.CompetitorOpinionsCtx", 0, 0, func() { r.comp, err = core.CompetitorOpinionsCtx(nil, sys, target, horizon, 0) })
	if err != nil {
		return err
	}
	r.once("core.competitors_ms", ms(d))
	cur := append([]float64(nil), cand.Init...)
	next := make([]float64, n)
	for i := 0; i < 5; i++ {
		d := r.tr.do("opinion.Step", 0, 0, func() { opinion.Step(g, cur, next, cand.Init, cand.Stub) })
		r.add("opinion.step_ns_per_edge", float64(d.Nanoseconds())/float64(g.M()))
		cur, next = next, cur
	}
	// Postings of the largest stored artifact: the RW walk set where the
	// index has one (its lists are long enough for blocks to matter), else
	// the sketches.
	postingsOf := r.idx.Sketches[0].Index
	if len(r.idx.Walks) > 0 {
		postingsOf = r.idx.Walks[0].Index
	}
	if c := postingsOf; c != nil && c.Compact != nil {
		entries := int64(0)
		d := r.tr.do("postings.Compact.Iter", 0, 0, func() {
			for v := int32(0); int(v) < n; v++ {
				it := c.Compact.Iter(v)
				for _, _, ok := it.Next(); ok; _, _, ok = it.Next() {
					entries++
				}
			}
		})
		if entries > 0 {
			r.res.set("postings.iter_ns_per_entry", float64(d.Nanoseconds())/float64(entries), "ns", int(entries))
			raw := 4*int64(n+1) + 8*entries // the CSR form: offsets, then walk id and position per entry
			r.res.set("postings.compression_x", float64(raw)/float64(c.Compact.Bytes()), "ratio", 0)
		}
	}
	sampler, err := graph.NewInEdgeSampler(g)
	if err != nil {
		return err
	}
	genTheta := min(r.w.Theta, 4096)
	d = r.tr.do("walks.GenerateSampled", 0, 0, func() {
		_, err = walks.GenerateSampled(sampler, cand.Stub, horizon, genTheta, sampling.Stream{Seed: indexSeed, ID: 211}, 0)
	})
	r.res.set("walks.generate_ns_per_walk", float64(d.Nanoseconds())/float64(genTheta), "ns", genTheta)
	return err
}

// queries replays each cold select-seeds through the service, then calls
// the layers below it again with the same inputs; then the warm mix's five
// evaluate keys, first time each.
func (r *replay) queries() error {
	ctx := context.Background()
	sys, cand, theta := r.sys, r.sys.Candidate(target), r.idx.Sketches[0].Theta
	for _, k := range r.selects {
		id := r.nextRequest()
		root, done := r.tr.open("request "+k.Path, id)
		var resp *service.SelectSeedsResponse
		var serr *service.Error
		var err error
		d := r.tr.do("service.SelectSeedsCtx", root, id, func() { resp, serr = r.sv.svc.SelectSeedsCtx(ctx, selectReq(k)) })
		if serr != nil {
			return serr
		}
		if resp.Cached {
			return fmt.Errorf("replay: %s k=%d was served from the cache", k.Score.Name, k.K)
		}
		r.add("service.select_cold_us", us(d))
		score := buildScore(k.Score, sys.R())
		prob := &core.Problem{Sys: sys, Target: target, Horizon: horizon, K: k.K, Score: score}
		var clone *walks.Set
		d = r.tr.do("walks.Set.Clone", root, id, func() { clone = r.sketch.Clone() })
		r.add("walks.clone_us", us(d))
		var est *walks.Estimator
		d = r.tr.do("walks.NewEstimator", root, id, func() {
			est, err = walks.NewEstimator(clone, target, cand.Init, r.comp, walks.SketchOwnerWeights(clone, theta), 0)
		})
		if err != nil {
			return err
		}
		r.add("walks.estimator_init_us", us(d))
		d = r.tr.do("walks.Estimator.SelectGreedy", root, id, func() { _, err = est.SelectGreedy(k.K, score) })
		if err != nil {
			return err
		}
		r.add("walks.greedy_us_per_round."+k.Score.Name, us(d)/float64(k.K))
		d = r.tr.do("sketch.SelectOnSet", root, id, func() { _, err = sketch.SelectOnSet(prob, r.sketch.Clone(), theta, r.comp, 0) })
		if err != nil {
			return err
		}
		r.add("sketch.select_on_set_ms", ms(d))
		d = r.tr.do("core.EvaluateExactCtx", root, id, func() { _, err = core.EvaluateExactCtx(ctx, sys, target, horizon, score, resp.Seeds, 0) })
		if err != nil {
			return err
		}
		r.add("core.evaluate_exact_ms", ms(d))
		B, err := opinion.Matrix(sys, horizon, target, resp.Seeds, 0)
		if err != nil {
			return err
		}
		d = r.tr.do("voting.Score.Eval", root, id, func() { score.Eval(B, target) })
		r.add("voting.eval_us."+k.Score.Name, us(d))
		done()
	}
	for _, k := range queryStream(readWarmMix, r.res.Seed, r.w.N) {
		if k.Path != "/v1/evaluate" {
			continue
		}
		var serr *service.Error
		d := r.tr.do("service.EvaluateCtx", 0, r.nextRequest(), func() { _, serr = r.sv.svc.EvaluateCtx(ctx, evalReq(k)) })
		if serr != nil {
			return serr
		}
		r.add("service.evaluate_cold_us", us(d))
	}
	return nil
}

// hits times a cached key directly and through the handler on loopback:
// the difference is what HTTP costs on top of the service.
func (r *replay) hits() error {
	if len(r.selects) == 0 {
		return nil
	}
	hit := r.selects[0]
	ts := httptest.NewServer(r.sv.svc.Handler())
	defer ts.Close()
	client := newClient()
	var direct, viaHTTP []float64
	for i := 0; i < 200; i++ {
		id := r.nextRequest()
		d := r.tr.do("service.SelectSeedsCtx hit", 0, id, func() { _, _ = r.sv.svc.SelectSeedsCtx(context.Background(), selectReq(hit)) })
		direct = append(direct, us(d))
		var err error
		d = r.tr.do("http round trip hit", 0, id, func() {
			var resp *http.Response
			if resp, err = client.Post(ts.URL+hit.Path, "application/json", bytes.NewReader(hit.Body)); err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		})
		if err != nil {
			return err
		}
		viaHTTP = append(viaHTTP, us(d))
	}
	r.res.set("service.select_hit_us", median(direct), "us", len(direct))
	r.res.set("service.http_self_us", median(viaHTTP)-median(direct), "us", len(viaHTTP))
	return nil
}

// overhead runs the service calls of the select replay again, from an
// empty cache, once without spans and once with.
func (r *replay) overhead() error {
	if len(r.selects) == 0 {
		return nil
	}
	pass := func(t *tracer) time.Duration {
		r.sv.svc.ResetCache()
		start := time.Now()
		for i, k := range r.selects {
			root, done := t.open("overhead pass", i+1)
			t.do("service.SelectSeedsCtx", root, i+1, func() { _, _ = r.sv.svc.SelectSeedsCtx(context.Background(), selectReq(k)) })
			done()
		}
		return time.Since(start)
	}
	untraced := pass(&tracer{})
	traced := pass(&tracer{on: true, t0: time.Now()})
	r.res.set("trace.overhead_pct", 100*float64(traced-untraced)/float64(untraced), "%", len(r.selects))
	return nil
}

// writes replays the first count batches of the writer's stream: through
// the async service as the daemon takes them, through a synchronous
// service as one repair, and layer by layer on this replay's own state.
func (r *replay) writes(gen *batchGen, count int) error {
	ctx := context.Background()
	n := r.sys.N()
	scratchWAL, _, err := persist.OpenWAL(iofault.OS, r.path+".scratch.wal")
	if err != nil {
		return err
	}
	scratchIdx := r.path + ".scratch"
	logged := &serialize.Index{Sys: r.idx.Sys, Sketches: r.idx.Sketches, Walks: r.idx.Walks, RRs: r.idx.RRs, BaseEpoch: r.idx.BaseEpoch}
	for i := 0; i < count; i++ {
		b := gen.Next()
		r.batches = append(r.batches, b)
		id := r.nextRequest()
		root, done := r.tr.open("batch", id)
		d := r.tr.do("dynamic.Batch.Validate", root, id, func() { err = b.Validate(n, r.sys.R()) })
		if err != nil {
			return err
		}
		r.add("dynamic.validate_us", us(d))
		d = r.tr.do("persist.WAL.Append", root, id, func() { err = scratchWAL.Append(persist.WALEntry{Epoch: int64(i + 1), Batch: b}) })
		if err != nil {
			return err
		}
		r.add("persist.wal_append_us", us(d))
		var serr *service.Error
		d = r.tr.do("service.EnqueueUpdates", root, id, func() {
			_, serr = r.sv.svc.EnqueueUpdates(&service.UpdateRequest{Dataset: servedDataset, Ops: b})
		})
		if serr != nil {
			return serr
		}
		r.add("service.accept_us", us(d))
		if serr := r.sv.svc.WaitIdle(ctx, servedDataset); serr != nil {
			return serr
		}
		d = r.tr.do("service.ApplyUpdates", root, id, func() {
			_, serr = r.syncSvc.ApplyUpdates(&service.UpdateRequest{Dataset: servedDataset, Ops: b})
		})
		if serr != nil {
			return serr
		}
		r.add("service.repair_total_ms", ms(d))

		// The repair's own layers, on this replay's copy of the state.
		var newSys *opinion.System
		var cs *dynamic.ChangeSet
		d = r.tr.do("dynamic.ApplySystem", root, id, func() { newSys, cs, err = dynamic.ApplySystem(r.sys, b) })
		if err != nil {
			return err
		}
		r.add("dynamic.apply_system_ms", ms(d))
		if deltas := edgeDeltas(b); len(deltas) > 0 {
			d = r.tr.do("graph.Graph.ApplyDeltas", root, id, func() { _, _, err = r.sys.Candidate(target).G.ApplyDeltas(deltas) })
			if err != nil {
				return err
			}
			r.add("graph.apply_deltas_ms", ms(d))
		}
		prob := &core.Problem{Sys: newSys, Target: target, Horizon: horizon, K: 1, Score: buildScore(scores[0], newSys.R())}
		mask := cs.WalkMask(n, target)
		d = r.tr.do("sketch.RepairSet", root, id, func() { r.sketch, _, err = sketch.RepairSet(prob, r.sketch, mask, indexSeed, 0) })
		if err != nil {
			return err
		}
		r.add("sketch.repair_ms", ms(d))
		if r.walks != nil {
			d = r.tr.do("rwalk.RepairSet", root, id, func() { r.walks, _, err = rwalk.RepairSet(prob, r.walks, mask, indexSeed, 0) })
			if err != nil {
				return err
			}
			r.add("rwalk.repair_ms", ms(d))
		}
		r.sys = newSys

		// What the daemon's persist hook does per repair: the whole index
		// again with the log one batch longer, then the WAL prune.
		logged.Updates = r.batches
		d = r.tr.do("persist.WriteIndexAtomic", root, id, func() { err = persist.WriteIndexAtomic(iofault.OS, scratchIdx, logged) })
		if err != nil {
			return err
		}
		r.add("persist.write_index_atomic_ms", ms(d))
		r.add("persist.bytes_per_batch", float64(fileBytes(scratchIdx))/float64(len(updateBody(b))))
		if i > 0 {
			// Two entries are pending here, so the prune rewrites the rest.
			d = r.tr.do("persist.WAL.Prune", root, id, func() { err = scratchWAL.Prune(int64(i)) })
			if err != nil {
				return err
			}
			r.add("persist.wal_prune_ms", ms(d))
		}
		done()
	}
	// Coalescing, over a queue as long as a burst leaves behind one repair.
	queue := append([]dynamic.Batch(nil), r.batches...)
	for len(queue) < 40 {
		queue = append(queue, gen.Next())
	}
	var runs []dynamic.CoalescedRun
	d := r.tr.do("dynamic.Coalesce", 0, 0, func() { runs = dynamic.Coalesce(queue, 65536) })
	r.once("dynamic.coalesce_us", us(d))
	in, kept := 0, 0
	for _, b := range queue {
		in += len(b)
	}
	for _, run := range runs {
		kept += len(run.Super)
	}
	r.res.set("dynamic.coalesce_ratio", ratio(float64(in-kept), float64(in)), "ratio", in)

	d = r.tr.do("service.ExportIndex", 0, 0, func() { _, _ = r.sv.svc.ExportIndex(servedDataset) })
	r.once("service.export_index_ms", ms(d))
	return nil
}

// restartCost loads the index the replayed batches were persisted into
// again: what that takes beyond the pristine load, per logged batch, is
// what a restart pays for replaying its log.
func (r *replay) restartCost() error {
	pristine := r.sv.addIndex
	r.sv.Close()
	var err error
	if r.sv, err = openServing(r.path, r.w.Cache); err != nil {
		return err
	}
	if n := len(r.sv.mi.Index.Updates); n > 0 {
		r.res.set("service.replay_ms_per_batch", ms(r.sv.addIndex-pristine)/float64(n), "ms", n)
	}
	return nil
}

func edgeDeltas(b dynamic.Batch) []graph.Delta {
	var out []graph.Delta
	for _, op := range b {
		switch op.Kind {
		case dynamic.OpAddEdge:
			out = append(out, graph.Delta{Op: graph.DeltaAdd, From: op.From, To: op.To, W: op.W})
		case dynamic.OpSetWeight:
			out = append(out, graph.Delta{Op: graph.DeltaSet, From: op.From, To: op.To, W: op.W})
		case dynamic.OpRemoveEdge:
			out = append(out, graph.Delta{Op: graph.DeltaRemove, From: op.From, To: op.To})
		}
	}
	return out
}

// residuals states how far the re-executed layers are from the calls that
// contain them. A gap above 15% is flagged, not failed: closing it takes
// spans inside the program, which is a later change.
func residuals(res *result, w workload) {
	cold := res.Metrics["service.select_cold_us"].Value
	if cold == 0 {
		return
	}
	children := res.Metrics["sketch.select_on_set_ms"].Value*1e3 + res.Metrics["core.evaluate_exact_ms"].Value*1e3
	res.set("service.self_pct", 100*(cold-children)/cold, "%", res.Metrics["service.select_cold_us"].Samples)
	if w.Reader != readColdSelect && w.Reader != readBigCold {
		return
	}
	report := func(what string, parts, whole float64) {
		gap := 100 * (whole - parts) / whole
		line := fmt.Sprintf("residual %s: %.0f us of %.0f us, gap %.1f%%", what, parts, whole, gap)
		if gap > 15 || gap < -15 {
			line += " (above 15%)"
		}
		res.Flags = append(res.Flags, line)
	}
	client := res.Metrics["query_p50_ms"].Value * 1e3
	report("http_self+select_cold against client query_p50", res.Metrics["service.http_self_us"].Value+cold, client)
	report("select_on_set+evaluate_exact against select_cold", children, cold)
}

func writeSpans(path, name string, spans []span) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{name, spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
