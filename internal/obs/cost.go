package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the cost-accounting half of the observability layer: a
// process-global registry of named atomic counters and derived gauges
// that the compute packages (engine, walks, postings, im, serialize,
// mmapio) increment at coarse serial points. The counters answer "how
// much work" where the histograms in the service layer answer "how
// long": postings entries iterated, walks truncated, RR sets scanned,
// bytes a repair wrote, and so on.
//
// Three consumers read the registry:
//
//   - the /metrics exposition appends every registered family, so a
//     counter added anywhere in the library is exported without a
//     hand-written exposition line;
//   - CaptureCosts snapshots all counters so a query handler can diff
//     before/after and attach the per-query work to its Span;
//   - the TimeSeries ring samples the registry on a timer.
//
// Counting discipline: registered counters are global and atomic, so
// they must never be touched inside per-item inner loops. Compute code
// accumulates locally (or derives counts arithmetically from prefix
// sums) and issues one Add per shard, per AddSeed, or per round. All
// instrumentation sites are additionally gated on CostEnabled so the
// overhead can be proven ~zero (see BenchmarkCostAccounting).

// Counter is a monotonically increasing atomic counter registered under
// a unique name. The zero Counter is usable but unregistered; normal
// construction is through NewCounter, which registers it.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// Add increments the counter by n. Safe for concurrent use.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// gaugeFunc is a registered derived gauge: its value is computed on
// demand from other state (e.g. pool utilization from busy/capacity ns).
type gaugeFunc struct {
	name string
	help string
	fn   func() float64
}

// registry holds every registered counter and gauge. There is one
// process-global instance; package-level counters register themselves in
// var blocks at init time, so registration races are impossible and a
// duplicate name is a programming error that panics immediately.
type registry struct {
	mu       sync.RWMutex
	names    map[string]struct{}
	counters []*Counter
	gauges   []gaugeFunc
}

var defaultRegistry = &registry{names: make(map[string]struct{})}

func (r *registry) register(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric registration %q", name))
	}
	r.names[name] = struct{}{}
}

// NewCounter creates and registers a counter in the process-global
// registry. Panics if the name is already taken — metric names are a
// public contract, so a collision is a bug, not a condition to handle.
func NewCounter(name, help string) *Counter {
	defaultRegistry.register(name)
	c := &Counter{name: name, help: help}
	defaultRegistry.mu.Lock()
	defaultRegistry.counters = append(defaultRegistry.counters, c)
	defaultRegistry.mu.Unlock()
	return c
}

// NewGaugeFunc registers a derived gauge whose value is computed by fn at
// read time. fn must be safe for concurrent calls.
func NewGaugeFunc(name, help string, fn func() float64) {
	defaultRegistry.register(name)
	defaultRegistry.mu.Lock()
	defaultRegistry.gauges = append(defaultRegistry.gauges, gaugeFunc{name: name, help: help, fn: fn})
	defaultRegistry.mu.Unlock()
}

// costDisabled gates every instrumentation site. The zero value means
// enabled: accounting is on by default and SetCostAccounting(false) is
// the explicit opt-out (used by the overhead benchmark and available to
// operators who want the last 1-2%).
var costDisabled atomic.Bool

// CostEnabled reports whether cost accounting is on.
func CostEnabled() bool { return !costDisabled.Load() }

// SetCostAccounting turns cost accounting on or off process-wide.
func SetCostAccounting(on bool) { costDisabled.Store(!on) }

// CostSnapshot is a point-in-time reading of every registered counter,
// keyed by metric name. A query handler captures one before and after
// its compute closure and attaches the Delta to the query's Span.
type CostSnapshot map[string]int64

// CaptureCosts snapshots all registered counters.
func CaptureCosts() CostSnapshot {
	defaultRegistry.mu.RLock()
	defer defaultRegistry.mu.RUnlock()
	s := make(CostSnapshot, len(defaultRegistry.counters))
	for _, c := range defaultRegistry.counters {
		s[c.name] = c.v.Load()
	}
	return s
}

// Delta returns s minus prev, keeping only counters that moved — the
// work attributable to whatever ran between the two captures.
func (s CostSnapshot) Delta(prev CostSnapshot) CostSnapshot {
	d := make(CostSnapshot)
	for name, v := range s {
		if dv := v - prev[name]; dv != 0 {
			d[name] = dv
		}
	}
	return d
}

// MetricFamily is one registered metric's current reading, as consumed
// by the exposition writer and the time-series sampler.
type MetricFamily struct {
	Name    string
	Help    string
	Value   float64
	IsGauge bool
}

// Families returns every registered counter and gauge with its current
// value, sorted by name — the registry's read API for exposition and
// sampling.
func Families() []MetricFamily {
	defaultRegistry.mu.RLock()
	fams := make([]MetricFamily, 0, len(defaultRegistry.counters)+len(defaultRegistry.gauges))
	for _, c := range defaultRegistry.counters {
		fams = append(fams, MetricFamily{Name: c.name, Help: c.help, Value: float64(c.v.Load())})
	}
	for _, g := range defaultRegistry.gauges {
		fams = append(fams, MetricFamily{Name: g.name, Help: g.help, Value: g.fn(), IsGauge: true})
	}
	defaultRegistry.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	return fams
}
