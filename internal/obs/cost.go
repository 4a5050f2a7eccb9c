package obs

import (
	"fmt"
	"slices"
	"strings"
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
// The same Registry type also holds a service's own counters (requests,
// cache hits, checkpoints): those are not cost counters, so they live in
// a registry per service, outside CaptureCosts and ungated by CostEnabled.
//
// Counting discipline: registered counters are global and atomic, so
// they must never be touched inside per-item inner loops. Compute code
// accumulates locally (or derives counts arithmetically from prefix
// sums) and issues one Add per shard, per AddSeed, or per round. All
// instrumentation sites are additionally gated on CostEnabled so the
// overhead can be proven ~zero (see BenchmarkCostAccounting).

// Counter is a monotonically increasing atomic counter, registered as one
// series of a Registry. The zero Counter is usable but unregistered; normal
// construction is through NewCounter, which registers it.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Safe for concurrent use.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a registered value that moves both ways: Add a negative n to
// lower it.
type Gauge struct{ Counter }

// series is one registered series: a family name, the labels fixed at
// registration, and how to read its value.
type series struct {
	name   string
	labels []Label
	key    string // name and labels as /metrics writes them (seriesKey)
	help   string
	gauge  bool
	value  func() float64
	c      *Counter // the counter behind a NewCounter series, for CaptureCosts
}

// Registry holds registered counters and gauges, kept sorted by series
// key, so a family's series sit together. The zero Registry is empty and
// ready to use. The process-global one (Default) holds the compute
// packages' cost counters, which register themselves in var blocks at init
// time; a Service declares its own counters in a registry of its own. A
// duplicate series is a programming error that panics immediately.
type Registry struct {
	mu     sync.RWMutex
	series []series
	// costs lists the NewCounter series in registration order, which only
	// appends: a CostSnapshot's index i is costs[i] whenever it was taken.
	costs []costSeries
}

// costSeries is a counter as CaptureCosts reads it.
type costSeries struct {
	key string
	c   *Counter
}

var defaultRegistry Registry

// Default returns the process-global registry behind the package-level
// NewCounter, NewGaugeFunc, Families and CaptureCosts.
func Default() *Registry { return &defaultRegistry }

func (r *Registry) add(s series) {
	s.key = seriesKey(s.name, s.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	i, dup := slices.BinarySearchFunc(r.series, s.key, func(e series, key string) int { return strings.Compare(e.key, key) })
	if dup {
		panic(fmt.Sprintf("obs: duplicate metric registration %q", s.key))
	}
	r.series = slices.Insert(r.series, i, s)
	if s.c != nil {
		r.costs = append(r.costs, costSeries{s.key, s.c})
	}
}

// NewCounter creates and registers a counter, one series of the family
// name with the given fixed labels. Panics if the series is already taken
// — metric names are a public contract, so a collision is a bug, not a
// condition to handle.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(series{name: name, labels: labels, help: help, value: func() float64 { return float64(c.Load()) }, c: c})
	return c
}

// NewCounterFunc registers a counter whose value fn reads from the state
// that owns it. fn must be safe for concurrent calls.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	r.add(series{name: name, help: help, value: func() float64 { return float64(fn()) }})
}

// NewGauge creates and registers a settable gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(series{name: name, help: help, gauge: true, value: func() float64 { return float64(g.Load()) }})
	return g
}

// NewGaugeFunc registers a derived gauge, one series of the family name
// with the given fixed labels, whose value is computed by fn at read time.
// fn must be safe for concurrent calls.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(series{name: name, labels: labels, help: help, gauge: true, value: fn})
}

// NewCounter creates and registers a counter in the process-global
// registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.NewCounter(name, help) }

// NewGaugeFunc registers a derived gauge in the process-global registry.
func NewGaugeFunc(name, help string, fn func() float64) { defaultRegistry.NewGaugeFunc(name, help, fn) }

// costDisabled gates every instrumentation site. The zero value means
// enabled: accounting is on by default and SetCostAccounting(false) is
// the explicit opt-out (used by the overhead benchmark and available to
// operators who want the last 1-2%).
var costDisabled atomic.Bool

// CostEnabled reports whether cost accounting is on.
func CostEnabled() bool { return !costDisabled.Load() }

// SetCostAccounting turns cost accounting on or off process-wide.
func SetCostAccounting(on bool) { costDisabled.Store(!on) }

// CostSnapshot is a point-in-time reading of every registered counter, in
// registration order. A query handler captures one before and after its
// compute closure and attaches the Delta to the query's Span.
type CostSnapshot []int64

// Costs is the work between two snapshots: the counters that moved, by
// series key, as an explain block and the slow-query log print it.
type Costs map[string]int64

// CaptureCosts snapshots all counters of the process-global registry.
func CaptureCosts() CostSnapshot {
	r := &defaultRegistry
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := make(CostSnapshot, len(r.costs))
	for i, se := range r.costs {
		s[i] = se.c.Load()
	}
	return s
}

// Delta returns s minus prev, keeping only counters that moved — the
// work attributable to whatever ran between the two captures. A counter
// registered after prev was taken counts from 0. Nil when nothing moved.
func (s CostSnapshot) Delta(prev CostSnapshot) Costs {
	r := &defaultRegistry
	r.mu.RLock()
	costs := r.costs
	r.mu.RUnlock()
	var d Costs
	for i, v := range s {
		if i < len(prev) {
			v -= prev[i]
		}
		if v != 0 {
			if d == nil {
				d = make(Costs)
			}
			d[costs[i].key] = v
		}
	}
	return d
}

// MetricFamily is one registered series' current reading, as consumed
// by the exposition writer and the time-series sampler.
type MetricFamily struct {
	Name    string
	Labels  []Label // fixed at registration; nil for an unlabeled family
	Key     string  // Name and Labels as /metrics writes them: the ring's key
	Help    string
	Value   float64
	IsGauge bool
}

// Families returns every registered series with its current value, sorted
// by key — the registry's read API for exposition and sampling.
func (r *Registry) Families() []MetricFamily {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fams := make([]MetricFamily, len(r.series))
	for i, s := range r.series {
		fams[i] = MetricFamily{Name: s.name, Labels: s.labels, Key: s.key, Help: s.help, Value: s.value(), IsGauge: s.gauge}
	}
	return fams
}

// Families reads the process-global registry.
func Families() []MetricFamily { return defaultRegistry.Families() }
