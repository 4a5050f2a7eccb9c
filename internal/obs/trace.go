package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// Span is one timed phase of a request: a name, a duration, and optional
// child stages (cache-lookup, singleflight-wait, selection, ...). A span
// belongs to the goroutine serving its request — it is not safe for
// concurrent mutation — but a finished span is immutable and may be
// shared (the slow-query log holds finished spans).
//
// All methods are nil-receiver safe, so instrumented code can thread an
// optional span without guarding every call site.
type Span struct {
	Name     string  `json:"name"`
	DurNs    int64   `json:"durNs"`
	Children []*Span `json:"stages,omitempty"`
	// Cost is the per-query work delta (registered-counter movement
	// attributable to this span), stamped by the query path when cost
	// accounting is enabled.
	Cost Costs `json:"cost,omitempty"`

	start time.Time
}

// NewSpan starts a root span.
func NewSpan(name string) *Span {
	return &Span{Name: name, start: time.Now()}
}

// StartChild starts a child stage and returns it; call End on the child
// when the stage finishes.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := NewSpan(name)
	s.Children = append(s.Children, c)
	return c
}

// Add appends an already-measured child stage (for phases whose duration
// was captured elsewhere, e.g. inside a singleflight closure).
func (s *Span) Add(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.Children = append(s.Children, &Span{Name: name, DurNs: d.Nanoseconds()})
}

// End stamps the span's duration (first call wins) and returns it.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	if s.DurNs == 0 && !s.start.IsZero() {
		s.DurNs = time.Since(s.start).Nanoseconds()
	}
	return time.Duration(s.DurNs)
}

// Stage returns the named direct child, or nil.
func (s *Span) Stage(name string) *Span {
	if s == nil {
		return nil
	}
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// SlowEntry is one retained slow query: when it finished, how long it
// took, identifying labels (endpoint, dataset, score, ...), and the full
// stage breakdown.
type SlowEntry struct {
	At     time.Time         `json:"at"`
	DurNs  int64             `json:"durNs"`
	Labels map[string]string `json:"labels,omitempty"`
	Span   *Span             `json:"span,omitempty"`
}

// SlowLog is a ring-buffered slow-query log: it retains the most recent
// Capacity entries whose duration met the threshold, evicting the oldest
// retained entry first (FIFO by arrival). Entries returns them slowest
// first, so the retained window reads as a top-N-by-duration list.
type SlowLog struct {
	mu          sync.Mutex
	thresholdNs int64
	ring        []SlowEntry
	next        int  // ring slot the next entry overwrites
	full        bool // the ring has wrapped at least once
	offered     int64
	retained    int64
}

// NewSlowLog creates a slow log retaining up to capacity entries with
// duration >= threshold. capacity <= 0 disables retention (Offer becomes
// a no-op).
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	l := &SlowLog{thresholdNs: threshold.Nanoseconds()}
	if capacity > 0 {
		l.ring = make([]SlowEntry, capacity)
	}
	return l
}

// Offer records an entry if it meets the threshold, evicting the oldest
// retained entry when the ring is full. Reports whether the entry was
// retained.
func (l *SlowLog) Offer(e SlowEntry) bool {
	if l == nil || len(l.ring) == 0 {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.offered++
	if e.DurNs < l.thresholdNs {
		return false
	}
	l.ring[l.next] = e
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.full = true
	}
	l.retained++
	return true
}

// Entries returns the retained entries sorted by duration descending
// (ties: most recent first) — the top-N view of the current window.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil || len(l.ring) == 0 {
		return nil
	}
	l.mu.Lock()
	n := l.next
	if l.full {
		n = len(l.ring)
	}
	out := make([]SlowEntry, n)
	// Copy oldest→newest so the sort's tie-break below sees arrival order.
	if l.full {
		copy(out, l.ring[l.next:])
		copy(out[len(l.ring)-l.next:], l.ring[:l.next])
	} else {
		copy(out, l.ring[:n])
	}
	l.mu.Unlock()
	// out is oldest→newest; emit slowest-first, newest winning ties.
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if out[idx[a]].DurNs != out[idx[b]].DurNs {
			return out[idx[a]].DurNs > out[idx[b]].DurNs
		}
		return idx[a] > idx[b]
	})
	sorted := make([]SlowEntry, len(out))
	for i, j := range idx {
		sorted[i] = out[j]
	}
	return sorted
}

// Threshold returns the retention threshold.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return time.Duration(l.thresholdNs)
}

// DumpJSON writes the retained entries (slowest first) as a JSON array.
func (l *SlowLog) DumpJSON(enc *json.Encoder) error {
	entries := l.Entries()
	if entries == nil {
		entries = []SlowEntry{}
	}
	return enc.Encode(entries)
}
