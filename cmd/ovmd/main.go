// Command ovmd is the opinion-maximization query daemon: it loads an
// opinion system once, restores (or builds) precomputed walk/sketch
// indexes, and serves select-seeds, evaluate, wins, min-seeds-to-win, and
// dynamic-update queries over HTTP/JSON — concurrently, with an LRU
// response cache and singleflight coalescing, and with every answer
// bit-identical to the direct library call at any parallelism.
//
// Live updates: POST /v1/datasets/{name}/updates applies a mutation batch
// (edge insert/delete/re-weight, opinion/stubbornness drift); the loaded
// artifacts are incrementally repaired (byte-identical to a full rebuild of
// the mutated graph) and the dataset epoch bumps by one. When serving from
// an -index file, every acknowledged batch is one fsync'd line in the
// <index>.wal sidecar; the index file itself is a checkpoint, rewritten
// atomically (as OVMIDX v3) only once the log reaches -compact-log batches,
// once a walk set's overlay of repaired walks outgrows its share, and at a
// graceful stop; the file just written becomes the base the daemon serves,
// so the heap holds only what changed since. A restarted daemon maps the
// checkpoint, replays the WAL, and only then listens — at the same epoch,
// with the same bytes.
// The index is served zero-copy from an mmap'd region. There is one index
// format; a file of any other version (the retired v1/v2 included) is
// refused at startup and left untouched: rebuild it with -build-index.
//
// Observability: GET /metrics is a dependency-free Prometheus text
// exposition (request/stage latency histograms, cache counters,
// per-dataset epoch and index-footprint gauges, and the engine-level
// cost counters — postings blocks decoded, walks truncated, repair
// bytes copied); an "explain": true field on any query returns its
// stage spans plus the cost-counter delta of its computation; GET
// /debug/slow-queries dumps the slow-query ring with per-stage timings;
// GET /debug/timeseries?window=10m serves the in-process ring TSDB
// (-timeseries-interval / -timeseries-capacity); -pprof mounts
// net/http/pprof under /debug/pprof/. Logging is leveled and structured
// (-log-level, -log-format json).
//
// Build an index once:
//
//	ovmgen -dataset yelp-like -n 5000 -system -out world
//	ovmd -build-index -load world.system -out world.ovmidx -theta 8192 -t 20 -seed 1
//
// Serve it (startup loads, never recomputes):
//
//	ovmd -listen :8080 -index world.ovmidx
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/select-seeds -d '{
//	  "dataset":"default","method":"RS","score":{"name":"plurality"},
//	  "k":10,"horizon":20,"seed":1,"theta":8192}'
//
// Endpoints and schemas are documented in the README ("The ovmd daemon").
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ovm"
	"ovm/internal/cliutil"
	"ovm/internal/core"
	"ovm/internal/iofault"
	"ovm/internal/obs"
	"ovm/internal/persist"
	"ovm/internal/serialize"
	"ovm/internal/service"
)

func main() {
	var (
		listen  = flag.String("listen", ":8080", "HTTP listen address")
		name    = flag.String("name", "default", "dataset registration name")
		index   = flag.String("index", "", "index file to serve (written by -build-index)")
		load    = flag.String("load", "", "system file to load (written by ovmgen -system)")
		dataset = flag.String("dataset", "", "synthetic dataset to generate when no -index/-load: "+strings.Join(ovm.DatasetNames, ", "))
		n       = flag.Int("n", 0, "node count override for -dataset (0 = dataset default)")
		mu      = flag.Float64("mu", 10, "edge-weight decay constant µ for -dataset")
		seed    = flag.Int64("seed", 1, "random seed (index build; also the dataset synthesis seed)")
		par     = flag.Int("parallel", 0, "engine worker count (0 = GOMAXPROCS, 1 = serial); never changes any response")
		cache   = flag.Int("cache", 1024, "LRU response cache capacity (entries; -1 = no response cache, every request computes)")
		compact = flag.Int("compact-log", 1024, "checkpoint the index file (rewrite it at the current epoch, serve the file written, and prune the WAL) once the update log (applied + queued batches) reaches this many, bounding WAL depth and restart replay cost; an outgrown overlay of repaired walks and a graceful stop checkpoint too (0 = never checkpoint; repairs then fold overlays on the heap)")

		syncUpdates = flag.Bool("sync-updates", false, "apply update batches inline (blocking POST) instead of the default async pipeline (durable WAL queue + background repair)")

		queryTimeout = flag.Duration("query-timeout", 0, "per-query deadline; an expired query returns deadline_exceeded (504) and its computation stops at the next cancellation poll (0 = unbounded; requests may override with timeoutMs)")
		maxInflight  = flag.Int("max-inflight", 0, "cap on concurrently computing queries; cache hits always answer (0 = unlimited)")
		maxQueue     = flag.Int("max-queue", 64, "computations allowed to wait for a free slot once -max-inflight is reached; overflow is shed with 429 + Retry-After (only meaningful with -max-inflight > 0)")
		debugFaults  = flag.Bool("debug-faults", false, "mount /debug/fault/* handlers (panic injection for failure-mode testing); never enable in production")
		dumpUpdates  = flag.Bool("dump-updates", false, "print the batches persisted past the -index file's base (its own log section, then its WAL) as JSONL (one batch per line, replayable via 'ovm -updates') and exit")

		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error (queries log at debug)")
		logFormat = flag.String("log-format", "text", "log line format: text or json")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the serving mux")
		slowLog   = flag.Int("slow-log", 32, "slow-query ring capacity served on /debug/slow-queries (0 disables)")
		slowThr   = flag.Duration("slow-threshold", 0, "minimum duration a request must take to enter the slow-query log (0 = retain the most recent requests)")
		tsEvery   = flag.Duration("timeseries-interval", 5*time.Second, "in-process ring-TSDB sampling cadence served on /debug/timeseries (0 disables sampling)")
		tsCap     = flag.Int("timeseries-capacity", 720, "ring-TSDB points retained (720 @ 5s = 1h of history)")

		build  = flag.Bool("build-index", false, "build an index file and exit instead of serving")
		out    = flag.String("out", "index.ovmidx", "index output path for -build-index")
		theta  = flag.Int("theta", 8192, "sketch count θ precomputed for the RS method (0 = skip)")
		walks  = flag.Bool("walks", true, "precompute the RW method's cumulative-score walk set")
		tBuild = flag.Int("t", 20, "time horizon the index artifacts are generated for")
		target = flag.Int("target", 0, "target candidate the index artifacts serve")
	)
	flag.Parse()

	checkFlag(*n >= 0, "-n must be >= 0, got %d", *n)
	checkFlag(*mu > 0, "-mu must be > 0, got %v", *mu)
	checkFlag(*par >= 0, "-parallel must be >= 0, got %d", *par)
	checkFlag(*cache >= -1, "-cache must be >= -1, got %d", *cache)
	checkFlag(*compact >= 0, "-compact-log must be >= 0, got %d", *compact)
	checkFlag(*theta >= 0, "-theta must be >= 0, got %d", *theta)
	checkFlag(*tBuild >= 0, "-t must be >= 0, got %d", *tBuild)
	checkFlag(*target >= 0, "-target must be >= 0, got %d", *target)
	checkFlag(*slowLog >= 0, "-slow-log must be >= 0, got %d", *slowLog)
	checkFlag(*slowThr >= 0, "-slow-threshold must be >= 0, got %v", *slowThr)
	checkFlag(*tsEvery >= 0, "-timeseries-interval must be >= 0, got %v", *tsEvery)
	checkFlag(*tsCap > 0, "-timeseries-capacity must be > 0, got %d", *tsCap)
	checkFlag(*logFormat == "text" || *logFormat == "json", "-log-format must be text or json, got %q", *logFormat)
	checkFlag(*queryTimeout >= 0, "-query-timeout must be >= 0, got %v", *queryTimeout)
	checkFlag(*maxInflight >= 0, "-max-inflight must be >= 0, got %d", *maxInflight)
	checkFlag(*maxQueue >= 0, "-max-queue must be >= 0, got %d", *maxQueue)
	level, err := obs.ParseLevel(*logLevel)
	checkFlag(err == nil, "-log-level: %v", err)

	if *build {
		buildIndex(*load, *dataset, *n, *mu, *seed, *out, *theta, *walks, *tBuild, *target, *par)
		return
	}
	if *dumpUpdates {
		checkFlag(*index != "", "-dump-updates requires -index")
		dumpUpdateLog(*index)
		return
	}
	serve(serveOpts{
		listen: *listen, name: *name, index: *index, load: *load, dataset: *dataset,
		n: *n, mu: *mu, seed: *seed, par: *par, cache: *cache, compact: *compact,
		pprof: *pprofOn, slowLog: *slowLog, slowThreshold: *slowThr,
		tsInterval: *tsEvery, tsCapacity: *tsCap,
		queryTimeout: *queryTimeout, maxInflight: *maxInflight, maxQueue: *maxQueue,
		debugFaults: *debugFaults, syncUpdates: *syncUpdates,
		logger: obs.NewLogger(os.Stderr, level, *logFormat == "json"),
	})
}

// dumpUpdateLog prints every persisted update batch past the index file's
// base as JSONL — one batch per line, each a JSON array of ops, the exact
// shape 'ovm -updates' replays: the file's own (legacy) log section, then
// the WAL entries that continue it. The chaos harness replays the dump
// through the direct CLI and compares a restarted daemon's answers against
// it. Neither file is modified.
func dumpUpdateLog(path string) {
	mi, err := serialize.OpenMapped(path)
	if err != nil {
		fatal(err)
	}
	defer mi.Close()
	idx := mi.Index
	entries, _, _, err := persist.ReadWAL(path + ".wal")
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, batch := range idx.Updates {
		if err := enc.Encode(batch); err != nil {
			fatal(err)
		}
	}
	served := idx.BaseEpoch + int64(len(idx.Updates))
	for _, e := range entries {
		if e.Epoch <= served {
			continue // the checkpoint already covers it
		}
		if err := enc.Encode(e.Batch); err != nil {
			fatal(err)
		}
	}
}

// buildIndex implements ovmd -build-index: load or synthesize a system,
// precompute the artifacts, and write the versioned binary index.
func buildIndex(load, dataset string, n int, mu float64, seed int64, out string, theta int, walks bool, horizon, target, par int) {
	sys := loadSystem(load, dataset, n, mu, seed)
	cliutil.CheckArg("ovmd", core.ValidateTargetHorizon(target, horizon, sys.R()))
	start := time.Now()
	idx, err := service.BuildIndex(sys, service.BuildOptions{
		Target:       target,
		Horizon:      horizon,
		Seed:         seed,
		SketchTheta:  theta,
		IncludeWalks: walks,
		Parallelism:  par,
	})
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	if err := serialize.WriteIndexV3(f, idx, serialize.V3Options{}); err != nil {
		_ = f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	info, err := os.Stat(out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (format v%d): n=%d r=%d, %d sketch + %d walk artifacts, %d bytes, built in %s\n",
		out, serialize.IndexFormatVersion, sys.N(), sys.R(),
		len(idx.Sketches), len(idx.Walks), info.Size(),
		time.Since(start).Round(time.Millisecond))
}

// serveOpts carries the daemon-mode flag values.
type serveOpts struct {
	listen, name, index, load, dataset string
	n                                  int
	mu                                 float64
	seed                               int64
	par, cache, compact                int
	pprof                              bool
	slowLog                            int
	slowThreshold                      time.Duration
	tsInterval                         time.Duration
	tsCapacity                         int
	queryTimeout                       time.Duration
	maxInflight, maxQueue              int
	debugFaults                        bool
	syncUpdates                        bool
	logger                             *obs.Logger
}

// serve implements the daemon mode: register the dataset (index preferred,
// so startup is load-not-recompute), then run the HTTP server until
// SIGINT/SIGTERM triggers a graceful drain. With -index, every
// acknowledged update batch is in the fsync'd WAL beside the file before
// it becomes visible (see store.go), so the serving epoch survives
// restarts, and the listener opens only after the log has been replayed.
func serve(o serveOpts) {
	logger := o.logger
	cfg := service.Config{
		CacheSize:          o.cache,
		Parallelism:        o.par,
		Logger:             logger,
		SlowQueryLog:       o.slowLog,
		SlowQueryThreshold: o.slowThreshold,
		TimeSeriesInterval: o.tsInterval,
		TimeSeriesCapacity: o.tsCapacity,
		QueryTimeout:       o.queryTimeout,
		MaxInflight:        o.maxInflight,
		MaxQueue:           o.maxQueue,
		DebugFaults:        o.debugFaults,
		AsyncUpdates:       !o.syncUpdates,
	}
	if o.slowLog == 0 {
		cfg.SlowQueryLog = -1 // 0 means "disabled" on the flag, "default" in Config
	}
	var svc *service.Service
	var st *store
	switch {
	case o.index != "":
		var err error
		st, err = openStore(iofault.OS, cfg, storeOpts{index: o.index, name: o.name, compact: o.compact})
		switch {
		case err == nil:
			svc = st.svc
		case errors.Is(err, errQuarantined):
			// Start degraded (health, stats, and metrics still serve; dataset
			// queries 404) rather than crash-looping on a corrupt file.
			logger.Warn("serving with no datasets: index was quarantined", obs.F("index", o.index))
			svc = service.New(cfg)
		default:
			fatal(err)
		}
	case o.load != "" || o.dataset != "":
		sys := loadSystem(o.load, o.dataset, o.n, o.mu, o.seed)
		svc = service.New(cfg)
		if err := svc.AddDataset(o.name, sys); err != nil {
			fatal(err)
		}
		logger.Info("registered dataset without precomputed artifacts; queries compute from scratch and updates are not persisted",
			obs.F("dataset", o.name), obs.F("n", sys.N()), obs.F("r", sys.R()))
	default:
		fatal(fmt.Errorf("pass -index, -load, or -dataset"))
	}

	handler := svc.Handler()
	if o.pprof {
		root := http.NewServeMux()
		root.Handle("/", handler)
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = root
	}
	// Server-side transport limits: slow or stuck clients cannot hold
	// connections open forever. The write timeout must cover the slowest
	// legitimate query, so it derives from the query deadline when one is
	// configured and stays unbounded otherwise (long cold selections are
	// legitimate on large graphs).
	srv := &http.Server{
		Addr:              o.listen,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	if o.queryTimeout > 0 {
		srv.WriteTimeout = o.queryTimeout + 30*time.Second
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("ovmd serving", obs.F("dataset", o.name), obs.F("listen", o.listen), obs.F("pprof", o.pprof))
	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}
	logger.Info("shutting down (draining in-flight queries)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fatal(err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if st != nil {
		st.Close()
	} else {
		svc.Close()
	}
	logger.Info("ovmd stopped")
}

// loadSystem resolves the three system sources: a .system file, a named
// synthetic dataset, or (neither given) an error.
func loadSystem(load, dataset string, n int, mu float64, seed int64) *ovm.System {
	switch {
	case load != "":
		f, err := os.Open(load)
		if err != nil {
			fatal(err)
		}
		sys, err := serialize.ReadSystem(f)
		_ = f.Close()
		if err != nil {
			fatal(err)
		}
		return sys
	case dataset != "":
		d, err := ovm.LoadDataset(dataset, ovm.DatasetOptions{N: n, Mu: mu, Seed: seed})
		if err != nil {
			fatal(err)
		}
		return d.Sys
	default:
		fatal(fmt.Errorf("pass -index, -load, or -dataset"))
		return nil
	}
}

func checkFlag(ok bool, format string, args ...any) {
	cliutil.CheckFlag("ovmd", ok, format, args...)
}

func fatal(err error) { cliutil.Fatal("ovmd", err) }
