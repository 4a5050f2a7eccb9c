package walks

import (
	"context"
	"fmt"
	"math"
	"slices"

	"ovm/internal/engine"
	"ovm/internal/graph"
	"ovm/internal/mmapio"
	"ovm/internal/sampling"
)

// Set is a collection of t-step reverse random walks grouped by start node
// (owner), with per-walk truncation state for Post-Generation Truncation.
//
// Its storage has two immutable parts (see Storage in the package doc): a
// base of flat arrays, mapped or heap, as a load, a generation or a fold
// produced it, and an overlay holding the owners repairs have replaced since.
// Every reader goes through walk or ownerWalks (a walk's nodes) and postings
// (a node's walks), which present the two as one set in walk-id order.
type Set struct {
	n       int // nodes of the graph the walks run over
	horizon int

	nodes      []int32    // base: concatenated walk sequences (walk w is nodes[off[w]:off[w+1]])
	off        []int32    // base: len numWalks+1
	ownerNodes []int32    // distinct start nodes, ascending
	ownerOff   []int32    // CSR into walk ids: owner i owns walks [ownerOff[i], ownerOff[i+1])
	idx        *walkIndex // base node → walk postings (nil until EnsureIndex)

	// region is the read-only mapping the four arrays above alias, nil when
	// they are on the heap. Nothing ever writes to them: a repair adds an
	// overlay and a fold writes fresh heap arrays.
	region *mmapio.Region

	ov *overlay // owners replaced by repairs since the base; nil when none

	// Truncation state, private to one Set: nil on a pristine set (a loaded,
	// generated or repaired artifact); Clone, AddSeed and NewEstimator
	// create it.
	end    []int32 // per walk, the offset of its current end node from its start
	inSeed []bool  // seed markers (len n)
	seeds  []int32
}

// Substream family offsets within a walk-generation Stream: walks for owner
// v draw from Sub(walkStream).At(v); the sketch start-node draws use
// Sub(startStream).At(0).
const (
	startStream = 1
	walkStream  = 2
)

// GeneratePlan draws plan[v] walks from every node v (Direct Generation with
// an empty seed set; RW's per-node counts of Theorems 10–12). Nodes with
// plan[v] == 0 get no walks.
//
// Generation is sharded by start node over the engine worker pool. Each
// owner v consumes its own random substream Sub(walkStream).At(v) of the
// draw's family, so the returned Set is bit-identical for every parallelism
// value (0 = GOMAXPROCS workers). ctx cancels at owner-shard boundaries (nil
// never cancels): the remaining shards are skipped, the partial set is
// discarded, and ctx.Err() is returned.
func (d Draw) GeneratePlan(ctx context.Context, gr *Ground, horizon int, plan []int32, parallelism int) (*Set, error) {
	n := gr.s.Graph().N()
	if len(plan) != n {
		return nil, fmt.Errorf("walks: plan has %d entries, want %d", len(plan), n)
	}
	if err := gr.check(horizon); err != nil {
		return nil, err
	}
	totalWalks := 0
	for v, c := range plan {
		if c < 0 {
			return nil, fmt.Errorf("walks: negative walk count %d for node %d", c, v)
		}
		totalWalks += int(c)
	}
	if est := int64(totalWalks) * int64(horizon+1); est > math.MaxInt32 {
		return nil, fmt.Errorf("walks: plan requires up to %d walk elements, exceeding storage limits", est)
	}
	numOwners := 0
	for _, c := range plan {
		if c != 0 {
			numOwners++
		}
	}
	owners := make([]int32, 0, numOwners)
	counts := make([]int32, 0, numOwners)
	for v := int32(0); v < int32(n); v++ {
		if plan[v] == 0 {
			continue
		}
		owners = append(owners, v)
		counts = append(counts, plan[v])
	}
	return generateGrouped(ctx, gr, horizon, owners, counts, d.stream(), parallelism)
}

// generateSampled draws d.Theta walks whose start nodes are sampled uniformly
// at random with replacement (the sketch set of §VI-A, with λ_v = 1 per
// sample). Walks from repeated samples of the same node are grouped under
// one owner, so per-owner averages realize the footnote-6 estimator.
// Sketch generation is sharded by owner exactly like GeneratePlan and is
// equally reproducible across parallelism values.
func (d Draw) generateSampled(ctx context.Context, gr *Ground, horizon, parallelism int) (*Set, error) {
	if err := gr.check(horizon); err != nil {
		return nil, err
	}
	// Start nodes come from a single sequential substream: theta cheap draws,
	// not worth sharding, and the sorted multiset is what the walk stage
	// consumes anyway.
	rng := d.stream().Sub(startStream).At(0)
	n := gr.s.Graph().N()
	starts := make([]int32, d.Theta)
	for i := range starts {
		starts[i] = int32(rng.Intn(n))
	}
	slices.Sort(starts)
	distinct := 0
	for i, v := range starts {
		if i == 0 || starts[i-1] != v {
			distinct++
		}
	}
	owners := make([]int32, 0, distinct)
	counts := make([]int32, 0, distinct)
	for i := 0; i < d.Theta; {
		v := starts[i]
		c := int32(0)
		for i < d.Theta && starts[i] == v {
			c++
			i++
		}
		owners = append(owners, v)
		counts = append(counts, c)
	}
	return generateGrouped(ctx, gr, horizon, owners, counts, d.stream(), parallelism)
}

// walkShard is one shard's locally-buffered generation output: concatenated
// walk sequences plus per-walk lengths, in walk order.
type walkShard struct {
	nodes []int32
	lens  []int32
}

// appendOwnerWalks generates count walks starting at v, drawing every random
// number from rng (the owner's private substream), and appends the node
// sequences and per-walk lengths to the shard buffers. This loop is THE
// definition of an owner's walks: every generation and Repair route through
// it, which is what makes selective regeneration byte-identical
// to full regeneration.
func appendOwnerWalks(s *graph.InEdgeSampler, stub []float64, horizon int, v int32, count int32, rng sampling.Source, out walkShard) walkShard {
	for j := int32(0); j < count; j++ {
		startLen := len(out.nodes)
		out.nodes = append(out.nodes, v)
		cur := v
		for step := 0; step < horizon; step++ {
			if rng.Float64() < stub[cur] {
				break
			}
			cur = s.Sample(cur, rng)
			out.nodes = append(out.nodes, cur)
		}
		out.lens = append(out.lens, int32(len(out.nodes)-startLen))
	}
	return out
}

// foldShards concatenates per-shard outputs into the set's flat arrays in
// ascending shard order, deriving the walk offsets. A prefix sum of the
// shard sizes places every shard, the arrays are allocated once, and the
// shards are copied into their places on the worker pool.
func (set *Set) foldShards(shards []walkShard, parallelism int) {
	walkAt := make([]int32, len(shards)+1) // shard s's first walk id
	elemAt := make([]int32, len(shards)+1) // and its first element
	for s, sh := range shards {
		walkAt[s+1] = walkAt[s] + int32(len(sh.lens))
		elemAt[s+1] = elemAt[s] + int32(len(sh.nodes))
	}
	set.off = make([]int32, walkAt[len(shards)]+1)
	set.nodes = make([]int32, elemAt[len(shards)])
	_ = engine.ForEachShard(parallelism, len(shards), func(_, s int) error {
		sh := shards[s]
		copy(set.nodes[elemAt[s]:], sh.nodes)
		off, at := set.off[walkAt[s]+1:], elemAt[s]
		for k, l := range sh.lens {
			at += l
			off[k] = at
		}
		return nil
	})
}

// generateGrouped runs the sharded walk generation common to planned and
// sampled starts: owners (ascending, with per-owner walk counts) are cut
// into contiguous shards, each shard generates its owners' walks into local
// buffers, and the shard outputs are concatenated in shard order.
func generateGrouped(ctx context.Context, gr *Ground, horizon int, owners, counts []int32, str sampling.Stream, parallelism int) (*Set, error) {
	s, stub := gr.s, gr.stub
	set := &Set{
		n:          s.Graph().N(),
		horizon:    horizon,
		ownerNodes: owners,
		ownerOff:   make([]int32, len(owners)+1),
	}
	for i, c := range counts {
		set.ownerOff[i+1] = set.ownerOff[i] + c
	}
	walkStr := str.Sub(walkStream)

	numShards := engine.NumShards(len(owners), 64, 256)
	shards, err := engine.MapCtx(ctx, parallelism, numShards, func(_, sh int) (walkShard, error) {
		lo, hi := engine.ShardRange(len(owners), numShards, sh)
		var out walkShard
		walkCount := int(set.ownerOff[hi] - set.ownerOff[lo])
		out.lens = make([]int32, 0, walkCount)
		out.nodes = make([]int32, 0, walkCount*(horizon+1)/2+1)
		for i := lo; i < hi; i++ {
			v := owners[i]
			out = appendOwnerWalks(s, stub, horizon, v, counts[i], walkStr.At(uint64(v)), out)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	set.foldShards(shards, parallelism)
	return set, nil
}

// NumWalks returns the total number of walks.
func (set *Set) NumWalks() int { return len(set.off) - 1 }

// NumOwners returns the number of distinct start nodes.
func (set *Set) NumOwners() int { return len(set.ownerNodes) }

// Owner returns the i-th distinct start node.
func (set *Set) Owner(i int) int32 { return set.ownerNodes[i] }

// OwnerWalkCount returns how many walks start at owner i.
func (set *Set) OwnerWalkCount(i int) int {
	return int(set.ownerOff[i+1] - set.ownerOff[i])
}

// ownerOf returns the owner index of walk w.
func (set *Set) ownerOf(w int32) int {
	i, found := slices.BinarySearch(set.ownerOff, w)
	if !found {
		i--
	}
	return i
}

// Horizon returns the walk length bound t.
func (set *Set) Horizon() int { return set.horizon }

// N returns the node count of the graph the walks run over.
func (set *Set) N() int { return set.n }

// Seeds returns the seed nodes applied so far (in insertion order).
func (set *Set) Seeds() []int32 { return set.seeds }

// IsSeed reports whether v has been applied as a seed.
func (set *Set) IsSeed(v int32) bool { return set.inSeed != nil && set.inSeed[v] }

// walk returns walk w's stored node sequence: the overlay's when a repair
// replaced it, the base's otherwise. With ownerWalks, this is how a walk is
// read.
func (set *Set) walk(w int32) []int32 {
	if ov := set.ov; ov != nil && ov.has(w) {
		o := ov.owner(w)
		k := w - o.first
		return o.nodes[o.off[k]:o.off[k+1]]
	}
	return set.nodes[set.off[w]:set.off[w+1]]
}

// ownerWalks returns owner i's walks as a block of nodes and offsets into
// it: the owner's k-th walk is nodes[off[k]:off[k+1]]. Repairs replace
// owners whole, so the block is either the base's or one overlay entry's;
// scans in owner order resolve the storage once per owner instead of once
// per walk.
func (set *Set) ownerWalks(i int) (nodes, off []int32) {
	first := set.ownerOff[i]
	if ov := set.ov; ov != nil && ov.has(first) {
		o := ov.owner(first)
		return o.nodes, o.off
	}
	return set.nodes, set.off[first : set.ownerOff[i+1]+1]
}

// active returns walk w's active prefix: its stored sequence up to the
// current truncation point.
func (set *Set) active(w int32) []int32 {
	s := set.walk(w)
	if set.end != nil {
		s = s[:set.end[w]+1]
	}
	return s
}

// truncState gives a pristine set its truncation state: every walk ends at
// its last stored node and no node is a seed. Only the Set's owner may call
// it; a shared artifact is truncated through a Clone.
func (set *Set) truncState() {
	if set.end != nil {
		return
	}
	end := make([]int32, set.NumWalks())
	off := set.off[:len(end)+1]
	for w := range end {
		end[w] = off[w+1] - off[w] - 1
	}
	if ov := set.ov; ov != nil {
		for _, o := range ov.owners {
			for k := range len(o.off) - 1 {
				end[o.first+int32(k)] = o.off[k+1] - o.off[k] - 1
			}
		}
	}
	set.end, set.inSeed = end, make([]bool, set.n)
}

// WalkValue returns Y_qu[S] for walk w: 1 if the (truncated) end node is a
// seed, else the initial opinion b0 of the end node.
func (set *Set) WalkValue(w int, b0 []float64) float64 {
	a := set.active(int32(w))
	if e := a[len(a)-1]; !set.IsSeed(e) {
		return b0[e]
	}
	return 1
}

// endValue is Y of walk w, the k-th walk of a block from ownerWalks: 1 if
// its current end node is a seed, else that node's initial opinion.
func (set *Set) endValue(nodes, off []int32, k int, w int32, b0 []float64) float64 {
	p := off[k+1] - 1
	if set.end != nil {
		p = off[k] + set.end[w]
	}
	e := nodes[p]
	if set.IsSeed(e) {
		return 1
	}
	return b0[e]
}

// AddSeed marks u as a seed and truncates every walk whose active prefix
// contains u at u's first occurrence (Post-Generation Truncation, §V-B). It
// visits only the walks in u's postings, not every element of every walk; a
// set without a postings index builds one first, serially. onHit, if non-nil,
// observes each truncated walk together with its pre-truncation end (an
// offset from the walk's start; estimators use it to maintain incremental
// state). Returns the number of walks truncated (0 when u already is a
// seed); the truncation and its postings drain are recorded in the cost
// counters. This is the one place a seed is applied.
func (set *Set) AddSeed(u int32, onHit func(w, oldEnd int32)) int64 {
	set.truncState()
	if set.inSeed[u] {
		return 0
	}
	set.EnsureIndex(1)
	set.inSeed[u] = true
	set.seeds = append(set.seeds, u)
	var hits int64
	it := set.postings(u)
	for ws, rels := it.block(); len(ws) > 0; ws, rels = it.block() {
		for j, w := range ws {
			if rel := rels[j]; rel <= set.end[w] {
				old := set.end[w]
				set.end[w] = rel
				hits++
				if onHit != nil {
					onHit(w, old)
				}
			}
		}
	}
	set.accountTruncate(u, hits)
	return hits
}

// ValueWithSeeds returns the walk's Y value under a hypothetical extra seed
// mask, without mutating the truncation state. Used by property tests
// (Lemma 3) and the γ* estimation heuristic.
func (set *Set) ValueWithSeeds(w int, b0 []float64, seedMask []bool) float64 {
	for _, u := range set.active(int32(w)) {
		if seedMask[u] {
			return 1
		}
	}
	return set.WalkValue(w, b0)
}

// WalkNodes returns walk w's node sequence up to the current truncation
// point (aliases internal storage; do not modify).
func (set *Set) WalkNodes(w int) []int32 { return set.active(int32(w)) }

// ownerEstimate is b̂_v[S] = (1/λ_v)·Σ_w Y-value(w) of owner i, its walks
// summed in walk order (fold contract, rule 1).
func (set *Set) ownerEstimate(i int, b0 []float64) float64 {
	nodes, off := set.ownerWalks(i)
	first := set.ownerOff[i]
	sum := 0.0
	for k := range len(off) - 1 {
		sum += set.endValue(nodes, off, k, first+int32(k), b0)
	}
	return sum / float64(len(off)-1)
}

// EstimatePerOwner writes the per-owner opinion estimates into out (len
// NumOwners), sharding the owner scan over the worker pool. Every owner's
// estimate is an independent reduction over its own walks, so the output is
// parallelism-invariant.
func (set *Set) EstimatePerOwner(b0 []float64, out []float64, parallelism int) {
	_ = engine.ForEachChunk(parallelism, len(set.ownerNodes), 512, 256, func(_, _, iLo, iHi int) error {
		for i := iLo; i < iHi; i++ {
			out[i] = set.ownerEstimate(i, b0)
		}
		return nil
	})
}

// BytesUsed approximates the walk storage footprint, for the memory study
// (Fig 17): the flat walk arrays, owner grouping, overlay, seed state, and
// — when built — the node → walk postings index.
func (set *Set) BytesUsed() int64 { return set.MappedBytes() + set.HeapBytes() }

// baseBytes is the base's walk storage: the flat arrays and owner grouping.
func (set *Set) baseBytes() int64 {
	return 4 * int64(len(set.nodes)+len(set.off)+len(set.ownerNodes)+len(set.ownerOff))
}

// mutableBytes is the truncation state: end offsets, seed markers and the
// seed list — heap-allocated, and absent on a pristine set.
func (set *Set) mutableBytes() int64 {
	return int64(len(set.end))*4 + int64(len(set.inSeed)) + int64(len(set.seeds))*4
}

// MappedBytes reports how much of the footprint aliases a read-only mapped
// region (0 for a heap-backed set). The walk storage and the postings index
// are accounted separately: a mapped set can still carry a heap-built index
// and vice versa. Repairs never change it; only a fold does.
func (set *Set) MappedBytes() int64 {
	b := int64(0)
	if set.region != nil {
		b = set.baseBytes()
	}
	if set.idx != nil && set.idx.region != nil {
		b += set.idx.bytes()
	}
	return b
}

// HeapBytes reports the heap-resident remainder of the footprint: what of
// the base is not mapped, the overlay, and the truncation state.
func (set *Set) HeapBytes() int64 {
	b := set.mutableBytes() + set.ov.bytes()
	if set.region == nil {
		b += set.baseBytes()
	}
	if set.idx != nil && set.idx.region == nil {
		b += set.idx.bytes()
	}
	return b
}
