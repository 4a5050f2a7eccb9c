package service

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLRUEvictionOrder(t *testing.T) {
	c := newLRUCache(3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	// Refresh a: b becomes the least recently used.
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("d", 4)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (least recently used)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should have survived eviction", k)
		}
	}
	if got := c.Evictions(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// The survival checks above touched a, then c, then d — making a the
	// least recently used again.
	c.Put("e", 5)
	if _, ok := c.Get("a"); ok {
		t.Error("a should have been evicted after the refresh sequence")
	}
	if got := []string{"e", "d", "c"}; !reflect.DeepEqual(c.Keys(), got) {
		t.Errorf("keys = %v, want %v", c.Keys(), got)
	}
}

func TestLRUPutRefreshesExisting(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not insert: b stays
	c.Put("c", 3)  // evicts b
	if v, ok := c.Get("a"); !ok || v.(int) != 10 {
		t.Errorf("Get(a) = %v, %v; want 10, true", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
}

func TestLRUZeroCapacityNeverStores(t *testing.T) {
	c := newLRUCache(-1)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache must not store entries")
	}
}

// weighed is a cached value that reports its size.
type weighed int64

func (w weighed) cacheBytes() int64 { return int64(w) }

// TestLRUBoundsSizedValuesByCost: values that report a size are bounded by
// their total, not their number — eviction frees least recently used bytes, a
// replacement is re-weighed, and a value larger than the whole capacity is
// handed back without being stored or evicting anything.
func TestLRUBoundsSizedValuesByCost(t *testing.T) {
	c := newLRUCache(100)
	c.Put("a", weighed(40))
	c.Put("b", weighed(40))
	c.Put("c", weighed(30)) // 110 > 100: a goes
	if got := []string{"c", "b"}; !reflect.DeepEqual(c.Keys(), got) || c.Cost() != 70 {
		t.Fatalf("keys %v cost %d, want %v cost 70", c.Keys(), c.Cost(), got)
	}
	c.Put("b", weighed(70)) // re-weighed in place: 100, nothing evicted
	if c.Cost() != 100 || c.Evictions() != 1 {
		t.Errorf("after replacing b: cost %d evictions %d, want 100 and 1", c.Cost(), c.Evictions())
	}
	if v := c.PutUnless("big", weighed(101), nil); v.(weighed) != 101 || c.Len() != 2 || c.Cost() != 100 {
		t.Errorf("oversized value: returned %v, cache holds %d entries of cost %d", v, c.Len(), c.Cost())
	}
	if v := c.PutUnless("c", weighed(1), func(any) bool { return true }); v.(weighed) != 30 || c.Cost() != 100 {
		t.Errorf("kept resident: returned %v cost %d, want 30 and 100", v, c.Cost())
	}
	c.Put("d", weighed(60)) // c was just refreshed: b (70) goes
	if got := []string{"d", "c"}; !reflect.DeepEqual(c.Keys(), got) || c.Cost() != 90 {
		t.Errorf("keys %v cost %d, want %v cost 90", c.Keys(), c.Cost(), got)
	}
	c.Reset()
	if c.Cost() != 0 || c.Len() != 0 {
		t.Errorf("after Reset: cost %d, %d entries", c.Cost(), c.Len())
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	const followers = 8
	var calls atomic.Int32
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]int, followers+1)
	run := func(i int, signal bool) {
		defer wg.Done()
		out, _, err := g.Do(context.Background(), "k", func(context.Context) *computeOutcome {
			calls.Add(1)
			if signal {
				close(leaderIn)
			}
			<-release
			return &computeOutcome{val: 42}
		})
		if err != nil || out.err != nil {
			t.Errorf("Do: %v / %v", err, out.err)
			return
		}
		results[i] = out.val.(int)
	}
	wg.Add(1)
	go run(0, true)
	<-leaderIn // the leader is inside fn; everyone else must coalesce
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go run(i, false)
	}
	// Release only after every follower is parked on the in-flight call —
	// otherwise the leader could finish before a follower arrives and the
	// follower would legitimately start a fresh computation.
	for g.waiters("k") < followers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
}

func TestFlightGroupPanicReleasesWaiters(t *testing.T) {
	g := newFlightGroup()
	out, _, err := g.Do(context.Background(), "k", func(context.Context) *computeOutcome { panic("boom") })
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if out.err == nil {
		t.Fatal("expected error from panicking computation")
	}
	// The key must be usable again afterwards.
	out, _, err = g.Do(context.Background(), "k", func(context.Context) *computeOutcome {
		return &computeOutcome{val: "ok"}
	})
	if err != nil || out.err != nil || out.val.(string) != "ok" {
		t.Fatalf("Do after panic = %+v, %v", out, err)
	}
}

func TestFlightGroupPropagatesError(t *testing.T) {
	g := newFlightGroup()
	want := errors.New("nope")
	out, _, err := g.Do(context.Background(), "k", func(context.Context) *computeOutcome {
		return &computeOutcome{err: want}
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !errors.Is(out.err, want) {
		t.Errorf("err = %v, want %v", out.err, want)
	}
}

// TestFlightGroupLeaderCancelDoesNotPoisonFollowers is the detachment
// contract: the leader's context expires mid-compute, the leader gets its
// context error, and a follower that coalesced onto the same key still
// receives the correct value — the computation must not be cancelled while
// any waiter remains interested.
func TestFlightGroupLeaderCancelDoesNotPoisonFollowers(t *testing.T) {
	g := newFlightGroup()
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var computeCtx context.Context
	fn := func(cctx context.Context) *computeOutcome {
		computeCtx = cctx
		close(leaderIn)
		<-release
		if err := cctx.Err(); err != nil {
			return &computeOutcome{err: err}
		}
		return &computeOutcome{val: "value"}
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(leaderCtx, "k", fn)
		leaderDone <- err
	}()
	<-leaderIn

	followerDone := make(chan *computeOutcome, 1)
	go func() {
		out, shared, err := g.Do(context.Background(), "k", fn)
		if err != nil {
			t.Errorf("follower Do: %v", err)
		}
		if !shared {
			t.Error("follower should have coalesced")
		}
		followerDone <- out
	}()
	for g.waiters("k") < 1 {
		runtime.Gosched()
	}

	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	// The follower is still interested: the compute context must be alive.
	if computeCtx.Err() != nil {
		t.Fatal("compute ctx cancelled while a follower still waits")
	}
	close(release)
	out := <-followerDone
	if out.err != nil || out.val.(string) != "value" {
		t.Fatalf("follower outcome = %+v, want value", out)
	}
}

// TestFlightGroupAllWaitersGoneCancelsCompute: once every caller abandons,
// the detached computation's context is cancelled and the key is retired so
// a fresh query restarts cleanly.
func TestFlightGroupAllWaitersGoneCancelsCompute(t *testing.T) {
	g := newFlightGroup()
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	computeDone := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		_, _, err := g.Do(ctx, "k", func(cctx context.Context) *computeOutcome {
			close(leaderIn)
			<-cctx.Done() // the compute observes its own cancellation
			computeDone <- cctx.Err()
			<-release
			return &computeOutcome{err: cctx.Err()}
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("caller err = %v, want context.Canceled", err)
		}
	}()
	<-leaderIn
	cancel()
	if err := <-computeDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("compute ctx err = %v, want context.Canceled", err)
	}
	// The key must be free for a fresh flight even though the old compute
	// goroutine is still unwinding.
	out, shared, err := g.Do(context.Background(), "k", func(context.Context) *computeOutcome {
		return &computeOutcome{val: "fresh"}
	})
	if err != nil || shared || out.val.(string) != "fresh" {
		t.Fatalf("fresh Do = %+v shared=%v err=%v", out, shared, err)
	}
	close(release)
}
