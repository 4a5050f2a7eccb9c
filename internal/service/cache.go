package service

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"ovm/internal/obs"
)

// lruCache is a least-recently-used cache keyed by canonicalized request
// strings, bounded by the total cost of what it holds. A value that reports
// its size (sized) costs that many bytes, any other value costs 1: the
// response cache holds a number of responses, an epoch memo a number of
// bytes. Values are treated as immutable by convention: callers must not
// mutate what they Get.
type lruCache struct {
	mu        sync.Mutex
	cap       int64
	used      int64      // total cost of the resident entries, <= cap
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	evictions int64
}

// sized is a cached value that weighs the memory it pins.
type sized interface{ cacheBytes() int64 }

type lruEntry struct {
	key  string
	val  any
	cost int64
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   int64(capacity),
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the cached value and refreshes its recency.
func (c *lruCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put inserts (or refreshes) a value, evicting least recently used entries
// while over capacity.
func (c *lruCache) Put(key string, val any) { c.PutUnless(key, val, nil) }

// PutUnless is Put with the decision taken under the cache lock: when key is
// resident and keep(resident) reports true, the resident value stays (and is
// refreshed). It returns the value the cache now serves for key — val when
// caching is disabled or val alone costs more than the capacity, in which
// case it is not stored.
func (c *lruCache) PutUnless(key string, val any, keep func(resident any) bool) any {
	cost := int64(1)
	if s, ok := val.(sized); ok {
		cost = s.cacheBytes()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.cap {
		return val
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry)
		if keep != nil && keep(e.val) {
			c.ll.MoveToFront(el)
			return e.val
		}
		c.used -= e.cost
		c.ll.Remove(el)
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val, cost: cost})
	c.used += cost
	for c.used > c.cap {
		oldest := c.ll.Back()
		e := c.ll.Remove(oldest).(*lruEntry)
		delete(c.items, e.key)
		c.used -= e.cost
		c.evictions++
	}
	return val
}

// entries snapshots the resident entries, least recently used first: Put
// in that order, they rebuild the recency order.
func (c *lruCache) entries() []lruEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]lruEntry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*lruEntry))
	}
	return out
}

// Cost returns the total cost of the cached entries (tests).
func (c *lruCache) Cost() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Evictions returns the lifetime eviction count.
func (c *lruCache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Reset drops every entry (eviction count is preserved).
func (c *lruCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.used = 0
}

// Keys returns the cached keys from most to least recently used (tests).
func (c *lruCache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*lruEntry).key)
	}
	return keys
}

// flightGroup coalesces concurrent calls with the same key into one
// execution whose result every caller shares (the classic singleflight
// shape, local to this package to keep the module dependency-free).
//
// The computation runs in a goroutine detached from every caller's
// context: a caller whose context expires abandons the wait (and gets its
// context error), but the computation keeps running for the remaining
// waiters — a leader's cancellation never poisons its followers. Only
// when every interested caller has abandoned is the computation's own
// context cancelled, stopping the now-unwanted work at its next
// cooperative poll.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// computeOutcome carries a detached computation's result to its waiters.
// selNs and cost are stamped by the compute closure so the leading
// caller's span can adopt them without racing the detached goroutine.
type computeOutcome struct {
	val   any
	err   error
	selNs int64
	cost  obs.Costs
}

type flightCall struct {
	done    chan struct{} // closed when outcome is set
	outcome *computeOutcome

	// Guarded by the group mutex.
	waiters  int  // callers that piggybacked (test synchronization)
	interest int  // callers still waiting; 0 → cancel the compute
	dead     bool // every waiter abandoned; no new joiners
	cancel   context.CancelFunc
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// Do coalesces concurrent callers of the same key onto one execution of fn
// and blocks until the outcome is ready or ctx is done, whichever comes
// first. fn runs in a detached goroutine under its own context, which is
// cancelled only when every coalesced caller has abandoned. shared reports
// whether this caller piggybacked on another's execution; a non-nil error
// is this caller's ctx error (the computation itself reports failures
// through the outcome).
func (g *flightGroup) Do(ctx context.Context, key string, fn func(ctx context.Context) *computeOutcome) (out *computeOutcome, shared bool, err error) {
	g.mu.Lock()
	if call, ok := g.calls[key]; ok && !call.dead {
		call.waiters++
		call.interest++
		g.mu.Unlock()
		return g.wait(ctx, key, call, true)
	}
	cctx, cancel := context.WithCancel(context.Background())
	call := &flightCall{done: make(chan struct{}), interest: 1, cancel: cancel}
	g.calls[key] = call
	g.mu.Unlock()

	go func() {
		// Set the outcome and drop the key even if fn panics, so one
		// crashing computation cannot wedge every future caller of the same
		// key. The panic is converted into an error shared by all waiters.
		defer func() {
			if r := recover(); r != nil {
				call.outcome = &computeOutcome{err: fmt.Errorf("service: query panicked: %v", r)}
			}
			cancel()
			g.mu.Lock()
			if g.calls[key] == call {
				delete(g.calls, key)
			}
			g.mu.Unlock()
			close(call.done)
		}()
		call.outcome = fn(cctx)
	}()
	return g.wait(ctx, key, call, false)
}

// wait blocks until the call finishes or ctx is done. An abandoning caller
// withdraws its interest; the last withdrawal cancels the computation and
// retires the key so a fresh query restarts cleanly instead of joining a
// doomed flight.
func (g *flightGroup) wait(ctx context.Context, key string, call *flightCall, shared bool) (*computeOutcome, bool, error) {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	select {
	case <-call.done:
		return call.outcome, shared, nil
	case <-ctxDone:
	}
	g.mu.Lock()
	call.interest--
	if call.interest == 0 && !call.dead {
		call.dead = true
		call.cancel()
		if g.calls[key] == call {
			delete(g.calls, key)
		}
	}
	g.mu.Unlock()
	return nil, shared, ctx.Err()
}

// waiters reports how many callers are blocked on the in-flight key
// (deterministic test synchronization).
func (g *flightGroup) waiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if call, ok := g.calls[key]; ok {
		return call.waiters
	}
	return 0
}
