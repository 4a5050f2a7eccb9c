package obs

import (
	"sync"
	"time"
)

// TSPoint is one sample instant: a timestamp and the value of every
// sampled series at that instant.
type TSPoint struct {
	At     time.Time          `json:"at"`
	Values map[string]float64 `json:"values"`
}

// TSSource produces the series values for one sample. It is called with
// a sample callback and must invoke it once per series. The indirection
// lets tests feed deterministic values and lets the service layer sample
// its own registry beside the process-global one.
type TSSource func(sample func(name string, v float64))

// RegistrySource samples every counter and gauge in r, each under its
// MetricFamily.Key.
func RegistrySource(r *Registry) TSSource {
	return func(sample func(string, float64)) {
		for _, f := range r.Families() {
			sample(f.Key, f.Value)
		}
	}
}

// TimeSeries is a fixed-capacity in-process ring TSDB: it samples its
// sources every interval and retains the most recent capacity points.
// With a 5s interval and 720 points the window is an hour of trends —
// QPS, latency, repair cost — queryable from a single ovmd without an
// external Prometheus.
type TimeSeries struct {
	mu      sync.Mutex
	sources []TSSource
	ring    []TSPoint
	next    int
	full    bool

	stop chan struct{}
	done chan struct{}
}

// NewTimeSeries creates a ring retaining up to capacity samples drawn
// from the given sources. capacity <= 0 selects 720 points.
func NewTimeSeries(capacity int, sources ...TSSource) *TimeSeries {
	if capacity <= 0 {
		capacity = 720
	}
	return &TimeSeries{sources: sources, ring: make([]TSPoint, capacity)}
}

// Sample takes one sample immediately at the given instant. Exposed so
// tests (and Start's ticker loop) drive sampling explicitly.
func (t *TimeSeries) Sample(at time.Time) {
	vals := make(map[string]float64)
	for _, src := range t.sources {
		src(func(name string, v float64) { vals[name] = v })
	}
	t.mu.Lock()
	t.ring[t.next] = TSPoint{At: at, Values: vals}
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Start launches the background sampler: one sample immediately, then
// one per interval until Stop. Call Stop before discarding the ring.
func (t *TimeSeries) Start(interval time.Duration) {
	if t.stop != nil {
		return
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	t.Sample(time.Now())
	go func() {
		defer close(t.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case at := <-tick.C:
				t.Sample(at)
			case <-t.stop:
				return
			}
		}
	}()
}

// Stop halts the background sampler and waits for it to exit. Safe to
// call when Start was never called.
func (t *TimeSeries) Stop() {
	if t.stop == nil {
		return
	}
	close(t.stop)
	<-t.done
	t.stop = nil
	t.done = nil
}

// Window returns the retained samples with At >= now-window, oldest
// first. A zero window returns everything retained.
func (t *TimeSeries) Window(window time.Duration, now time.Time) []TSPoint {
	t.mu.Lock()
	n := t.next
	if t.full {
		n = len(t.ring)
	}
	pts := make([]TSPoint, 0, n)
	// Reassemble oldest→newest from the ring.
	if t.full {
		pts = append(pts, t.ring[t.next:]...)
		pts = append(pts, t.ring[:t.next]...)
	} else {
		pts = append(pts, t.ring[:n]...)
	}
	t.mu.Unlock()
	if window <= 0 {
		return pts
	}
	cutoff := now.Add(-window)
	for i, p := range pts {
		if !p.At.Before(cutoff) {
			return pts[i:]
		}
	}
	return pts[:0]
}
