package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ovm/internal/dynamic"
)

// value is one reported number. Samples is how many observations stand
// behind it (0 for a plain reading such as a file size).
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	StreamHash string           `json:"stream_hash"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Problems   []string         `json:"problems,omitempty"` // why Correct is false
	Flags      []string         `json:"flags,omitempty"`    // residual gaps above 15%: reported, not failed
	Metrics    map[string]value `json:"metrics"`

	// Kept for the oracle and the traced replay; not part of the file.
	indexPath string
	keys      []request       // the reader's key list
	answers   [][]byte        // latest answer prefix per key
	sent      []dynamic.Batch // every accepted batch, in epoch order
	finalSel  []byte          // the probe select-seeds answer at the final epoch
}

func (r *result) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = value{Value: v, Unit: unit, Samples: samples}
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// waitUp polls the set-up probe until the server answers it from the index
// and returns the answer prefix. Connection refusals while the daemon is
// still loading are expected and retried.
func waitUp(srv server, want []byte) ([]byte, error) {
	c := newConn(srv.URL())
	p := setupProbe()
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		if body := c.post(p.Path, p.Body); body != nil {
			answer, _, ok := splitAnswer(body)
			if !ok || !bytes.Contains(answer, []byte(`"fromIndex":true`)) {
				return nil, fmt.Errorf("set-up probe answered %s", body)
			}
			if want != nil && !bytes.Equal(want, answer) {
				return nil, fmt.Errorf("set-up probe answered %s, want %s", answer, want)
			}
			return append([]byte(nil), answer...), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("server not up after 90s: %v", c.firstErr)
}

// fileBytes totals the sizes of the files that exist.
func fileBytes(paths ...string) int64 {
	total := int64(0)
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			total += st.Size()
		}
	}
	return total
}

// runLive drives one workload against a live server and fills in the
// end-to-end metrics and the /metrics-derived counts.
func runLive(be backend, w workload, sh shape, seed int64, dir string) (*result, error) {
	res := &result{
		Workload: w.Name, Seed: seed, StreamHash: streamHash(w, seed),
		Correct: true, Metrics: make(map[string]value),
	}
	indexPath := filepath.Join(dir, w.Name+".ovmidx")
	walPath := indexPath + ".wal"

	// Set-up, several times; the last server is the one measured.
	var srv server
	var setups []float64
	var probeAnswer []byte
	for i := 0; i < sh.Setups; i++ {
		if srv != nil {
			if err := srv.Stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up %d: %w", i, err)
			}
		}
		_ = os.Remove(indexPath)
		_ = os.Remove(walPath)
		t0 := time.Now()
		if err := be.BuildIndex(w, indexPath); err != nil {
			return nil, err
		}
		var err error
		if srv, err = be.Start(indexPath, w.Cache); err != nil {
			return nil, err
		}
		if probeAnswer, err = waitUp(srv, probeAnswer); err != nil {
			_ = srv.Stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	stop := func() {
		if srv != nil {
			_ = srv.Stop()
			srv = nil
		}
	}
	defer stop()
	res.set("setup_s", median(setups), "s", len(setups))

	base := srv.URL()
	admin := newClient() // scrapes only; never carries load
	var rd *reader
	if w.Reader != readNone {
		exp := allMisses
		if w.Reader == readWarmMix {
			exp = anyCached // hits only after the warm-up has filled the cache
		}
		rd = newReader(base, queryStream(w.Reader, seed, w.N), exp)
	}
	wr := newWriter(base, newBatchGen(w.writeKind(), seed, w.N))

	// Warm-up, untimed: fill the cache, page the mapping in, and let the
	// first repairs pay the one-off copy of the mapped arrays to the heap.
	if rd != nil {
		rd.run(time.Now().Add(sh.WarmUp), w.Reader == readBigCold, false)
		if w.Reader == readWarmMix {
			for rd.next < len(rd.keys) { // every key once, however short the warm-up
				rd.one(false)
			}
			if w.Writer == writeNone {
				rd.expect = allHits
			}
		}
	}
	if w.Writer != writeNone {
		wr.runPaced(sh.Pace/4, warmUpBatches, time.Time{}, false)
	}
	warmBatches := len(wr.accept)

	// The measured window.
	m0, err := scrape(admin, base)
	if err != nil {
		return nil, err
	}
	_, cpu0, err := srv.Usage()
	if err != nil {
		return nil, err
	}
	prober := newConn(base)
	conns := []*conn{wr.conn, prober}
	if rd != nil {
		conns = append(conns, rd.conn)
	}
	queries0, updates0 := sentSoFar(conns)
	var burstLag []time.Duration
	var burstSeen time.Time
	start := time.Now()
	until := start.Add(sh.Window)
	var wg sync.WaitGroup
	if rd != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd.run(until, w.Reader == readBigCold, true)
		}()
	}
	switch w.Writer {
	case writePaced:
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr.runPaced(sh.Pace, 0, until, true)
		}()
	case writeBurst:
		notify := make(chan accepted) // unbuffered: an offer lands only on an idle prober
		wg.Add(2)
		go func() {
			defer wg.Done()
			wr.runBurst(until, notify)
		}()
		go func() {
			defer wg.Done()
			burstLag, burstSeen = runProber(prober, sh.ProbeEach, notify, func() int64 { return wr.lastEpoch })
		}()
	}
	wg.Wait()
	if w.Writer == writeBurst {
		wr.lag, wr.lastSeen = burstLag, burstSeen
	}

	rss, cpu1, err := srv.Usage()
	if err != nil {
		return nil, err
	}
	m1, err := scrape(admin, base)
	if err != nil {
		return nil, err
	}
	res.set("rss_peak_mb", rss, "MB", 0)
	res.set("index_mb", float64(fileBytes(indexPath, walPath))/(1<<20), "MB", 0)
	queries1, updates1 := sentSoFar(conns)
	failedInWindow := 0
	for _, c := range conns {
		failedInWindow += c.failed
	}
	if ops := queries1 - queries0 + updates1 - updates0 - failedInWindow; ops > 0 {
		res.set("cpu_ms_per_op", (cpu1-cpu0)*1000/float64(ops), "ms", ops)
	}
	if failedInWindow == 0 {
		checkAccounting(res, m0, m1, queries1-queries0, updates1-updates0)
	}

	// Query metrics: the window's reader, or a warm-mix tail after a burst.
	if rd != nil {
		queryMetrics(res, rd, start)
	} else {
		tail := newReader(base, queryStream(readWarmMix, seed, w.N), anyCached)
		t0 := time.Now()
		tail.run(t0.Add(sh.ReadTail), false, true)
		queryMetrics(res, tail, t0)
		rd = tail
	}

	// Update metrics: the window's writer, or a paced tail after a
	// read-only window, whose first batches are as untimed as a warm-up.
	if w.Writer == writeNone {
		wr.runPaced(sh.Pace, warmUpBatches, time.Time{}, false)
		warmBatches = len(wr.accept)
		wr.runPaced(sh.Pace, 0, time.Now().Add(sh.WriteTail), false)
	}
	updateMetrics(res, wr, warmBatches)
	m2, err := scrape(admin, base)
	if err != nil {
		return nil, err
	}
	liveCounts(res, m0, m1, m2)

	// The state every later check compares against: the probe selection at
	// the final epoch, which must cover every accepted batch.
	final := newConn(base)
	p := setupProbe()
	body := final.post(p.Path, p.Body)
	answer, _, ok := splitAnswer(body)
	if !ok {
		return nil, fmt.Errorf("final probe failed: %v", final.firstErr)
	}
	res.finalSel = append([]byte(nil), answer...)
	if got, want := answerEpoch(answer), int64(len(wr.sent)); got != want {
		res.problem("final epoch %d, but %d batches were accepted", got, want)
	}

	if w.Restart {
		t0 := time.Now()
		if err := srv.Stop(); err != nil {
			return nil, fmt.Errorf("graceful stop: %w", err)
		}
		if srv, err = be.Start(indexPath, w.Cache); err != nil {
			return nil, err
		}
		// Identical bytes include the epoch: acknowledged writes survived.
		if _, err := waitUp(srv, res.finalSel); err != nil {
			res.problem("after restart: %v", err)
		}
		res.set("restart_ms", ms(time.Since(t0)), "ms", 1)
	}

	for _, c := range []*conn{rd.conn, wr.conn, prober, final} {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if c.firstErr != nil {
			res.problem("%v", c.firstErr)
		}
	}
	res.set("failed_share", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	res.keys, res.answers, res.sent = rd.keys, rd.answers, wr.sent
	stop()
	return res, nil
}

// warmUpBatches is how many batches a writer sends untimed before its
// first timed one: the first repairs copy the mapped arrays to the heap,
// once per daemon lifetime, and take two to three times as long.
const warmUpBatches = 3

// queryMetrics reports a reader's stream over its whole elapsed time.
func queryMetrics(res *result, rd *reader, start time.Time) {
	n := len(rd.lat)
	if n == 0 {
		return
	}
	xs := durationsMs(rd.lat)
	res.set("query_quiet_ms", quiet(xs, rd.latKey), "ms", n)
	res.set("query_p50_ms", percentile(xs, 50), "ms", n)
	res.set("query_p99_ms", percentile(xs, 99), "ms", n)
	res.set("query_qps", float64(n)/rd.lastDone.Sub(start).Seconds(), "1/s", n)
}

// updateMetrics reports a writer's stream from its skip-th batch on.
func updateMetrics(res *result, wr *writer, skip int) {
	acc := wr.accept[skip:]
	lag := wr.lag
	late := wr.late
	if len(lag) == len(wr.accept) {
		lag = lag[skip:] // paced: one probe per batch, so the warm-up probes drop too
	}
	late = late[min(skip, len(late)):] // a burst has no due times past its warm-up
	if len(acc) == 0 {
		return
	}
	res.set("update_accept_p50_ms", percentile(durationsMs(acc), 50), "ms", len(acc))
	res.set("update_accept_p90_ms", percentile(durationsMs(acc), 90), "ms", len(acc))
	res.set("visible_lag_quiet_ms", quiet(durationsMs(lag), nil), "ms", len(lag))
	res.set("visible_lag_p50_ms", percentile(durationsMs(lag), 50), "ms", len(lag))
	res.set("visible_lag_p90_ms", percentile(durationsMs(lag), 90), "ms", len(lag))
	if d := wr.lastSeen.Sub(wr.firstTimed); d > 0 {
		res.set("updates_per_s", float64(len(acc))/d.Seconds(), "1/s", len(acc))
	}
	res.set("loadgen.late_p90_ms", percentile(durationsMs(late), 90), "ms", len(late))
}

// sentSoFar totals the query and update requests a set of conns has sent.
func sentSoFar(conns []*conn) (queries, updates int) {
	for _, c := range conns {
		queries += c.attempted - c.updates
		updates += c.updates
	}
	return queries, updates
}

// checkAccounting asserts the identities the daemon's own exposition must
// satisfy over the window, exactly: every query sent is in the request
// histogram and is either a hit or a miss, and every accepted batch was
// applied (the window ends only once its last batch is visible).
func checkAccounting(res *result, m0, m1 metricsSnap, queries, updates int) {
	hist := m1.sumDelta(m0, "ovmd_request_duration_seconds_count", `endpoint="updates"`)
	if int(hist) != queries {
		res.problem("accounting: sent %d queries, request histogram grew by %.0f", queries, hist)
	}
	hits := m1.delta(m0, "ovmd_cache_hits_total")
	misses := m1.delta(m0, "ovmd_cache_misses_total")
	if int(hits+misses) != queries {
		res.problem("accounting: %d queries but hits %.0f + misses %.0f", queries, hits, misses)
	}
	if applied := m1.delta(m0, "ovmd_updates_total"); int(applied) != updates {
		res.problem("accounting: %d batches accepted in the window, %.0f applied", updates, applied)
	}
}
