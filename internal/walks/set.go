package walks

import (
	"context"
	"fmt"
	"math"
	"slices"

	"ovm/internal/engine"
	"ovm/internal/graph"
	"ovm/internal/sampling"
)

// Set is a collection of t-step reverse random walks stored in flat arrays,
// grouped contiguously by start node (owner), with per-walk truncation
// state for Post-Generation Truncation.
type Set struct {
	g       *graph.Graph
	horizon int

	nodes []int32 // concatenated walk sequences (walk w is nodes[off[w]:off[w+1]])
	off   []int32 // len numWalks+1
	end   []int32 // absolute index into nodes of each walk's current end node

	ownerNodes []int32 // distinct start nodes, ascending
	ownerOff   []int32 // CSR into walk ids: owner i owns walks [ownerOff[i], ownerOff[i+1])

	inSeed []bool // seed markers (len n)
	seeds  []int32

	idx *walkIndex // node → walk postings (nil until EnsureIndex; shared by Clones)

	// storageMapped records that the immutable arrays (nodes, off,
	// ownerNodes, ownerOff) alias a read-only mapped region. Mutable state
	// (end, inSeed, seeds) is always heap-allocated, and every mutation
	// path (AddSeed, Repair) writes only to heap state or to fresh arrays,
	// so a mapped Set behaves identically to a heap one.
	storageMapped bool
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
	return generateGrouped(ctx, gr, horizon, owners, counts, totalWalks, d.stream(), parallelism)
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
	return generateGrouped(ctx, gr, horizon, owners, counts, d.Theta, d.stream(), parallelism)
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
// ascending shard order, deriving walk offsets and pristine end pointers.
func (set *Set) foldShards(shards []walkShard) {
	for _, sh := range shards {
		for _, l := range sh.lens {
			pos := set.off[len(set.off)-1]
			set.end = append(set.end, pos+l-1)
			set.off = append(set.off, pos+l)
		}
		set.nodes = append(set.nodes, sh.nodes...)
	}
}

// generateGrouped runs the sharded walk generation common to planned and
// sampled starts: owners (ascending, with per-owner walk counts) are cut
// into contiguous shards, each shard generates its owners' walks into local
// buffers, and the shard outputs are concatenated in shard order.
func generateGrouped(ctx context.Context, gr *Ground, horizon int, owners, counts []int32, totalWalks int, str sampling.Stream, parallelism int) (*Set, error) {
	s, stub := gr.s, gr.stub
	g := s.Graph()
	n := g.N()
	set := &Set{
		g:          g,
		horizon:    horizon,
		ownerNodes: owners,
		ownerOff:   make([]int32, len(owners)+1),
		off:        make([]int32, 1, totalWalks+1),
		end:        make([]int32, 0, totalWalks),
		inSeed:     make([]bool, n),
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
	set.foldShards(shards)
	return set, nil
}

// NumWalks returns the total number of walks.
func (set *Set) NumWalks() int { return len(set.end) }

// NumOwners returns the number of distinct start nodes.
func (set *Set) NumOwners() int { return len(set.ownerNodes) }

// Owner returns the i-th distinct start node.
func (set *Set) Owner(i int) int32 { return set.ownerNodes[i] }

// OwnerWalkCount returns how many walks start at owner i.
func (set *Set) OwnerWalkCount(i int) int {
	return int(set.ownerOff[i+1] - set.ownerOff[i])
}

// Horizon returns the walk length bound t.
func (set *Set) Horizon() int { return set.horizon }

// Graph returns the underlying graph.
func (set *Set) Graph() *graph.Graph { return set.g }

// Seeds returns the seed nodes applied so far (in insertion order).
func (set *Set) Seeds() []int32 { return set.seeds }

// IsSeed reports whether v has been applied as a seed.
func (set *Set) IsSeed(v int32) bool { return set.inSeed[v] }

// WalkValue returns Y_qu[S] for walk w: 1 if the (truncated) end node is a
// seed, else the initial opinion b0 of the end node.
func (set *Set) WalkValue(w int, b0 []float64) float64 {
	e := set.nodes[set.end[w]]
	if set.inSeed[e] {
		return 1
	}
	return b0[e]
}

// AddSeed marks u as a seed and truncates every walk whose active prefix
// contains u at u's first occurrence (Post-Generation Truncation, §V-B). It
// visits only the walks in u's postings, not every element of every walk; a
// set without a postings index builds one first. onHit, if non-nil,
// observes each truncated walk together with its pre-truncation end pointer
// (estimators use it to maintain incremental state). Returns the number of
// walks truncated (0 when u already is a seed); the truncation and its
// postings drain are recorded in the cost counters. This is the one place a
// seed is applied.
func (set *Set) AddSeed(u int32, onHit func(w, oldEnd int32)) int64 {
	if set.inSeed[u] {
		return 0
	}
	set.EnsureIndex()
	set.inSeed[u] = true
	set.seeds = append(set.seeds, u)
	var hits int64
	truncate := func(w, rel int32) {
		if pos := set.off[w] + rel; pos <= set.end[w] {
			old := set.end[w]
			set.end[w] = pos
			hits++
			if onHit != nil {
				onHit(w, old)
			}
		}
	}
	if idx := set.idx; idx.compact != nil {
		it := idx.compact.Iter(u)
		for w, rel, ok := it.Next(); ok; w, rel, ok = it.Next() {
			truncate(w, rel)
		}
	} else {
		for p := idx.off[u]; p < idx.off[u+1]; p++ {
			truncate(idx.walk[p], idx.pos[p])
		}
	}
	set.accountTruncate(u, hits)
	return hits
}

// ValueWithSeeds returns the walk's Y value under a hypothetical extra seed
// mask, without mutating the truncation state. Used by property tests
// (Lemma 3) and the γ* estimation heuristic.
func (set *Set) ValueWithSeeds(w int, b0 []float64, seedMask []bool) float64 {
	for i := set.off[w]; i <= set.end[w]; i++ {
		if seedMask[set.nodes[i]] {
			return 1
		}
	}
	e := set.nodes[set.end[w]]
	if set.inSeed[e] {
		return 1
	}
	return b0[e]
}

// WalkNodes returns walk w's node sequence up to the current truncation
// point (aliases internal storage; do not modify).
func (set *Set) WalkNodes(w int) []int32 {
	return set.nodes[set.off[w] : set.end[w]+1]
}

// ownerEstimate is b̂_v[S] = (1/λ_v)·Σ_w Y-value(w) of owner i, its walks
// summed in walk order (fold contract, rule 1).
func (set *Set) ownerEstimate(i int, b0 []float64) float64 {
	lo, hi := set.ownerOff[i], set.ownerOff[i+1]
	sum := 0.0
	for w := lo; w < hi; w++ {
		sum += set.WalkValue(int(w), b0)
	}
	return sum / float64(hi-lo)
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
// (Fig 17): the flat walk arrays, owner grouping, seed state, and — when
// built — the node → walk postings index.
func (set *Set) BytesUsed() int64 { return set.MappedBytes() + set.HeapBytes() }

// mutableBytes is the per-process mutable state: truncation pointers, seed
// markers, and the seed list — always heap-allocated, even for a mapped set.
func (set *Set) mutableBytes() int64 {
	return int64(len(set.end))*4 + int64(len(set.inSeed)) + int64(len(set.seeds))*4
}

// MappedBytes reports how much of the footprint aliases a read-only mapped
// region (0 for a heap-backed set). The walk storage and the postings index
// are accounted separately: a mapped set can still carry a heap-built index
// and vice versa.
func (set *Set) MappedBytes() int64 {
	b := int64(0)
	if set.storageMapped {
		b = int64(len(set.nodes))*4 + int64(len(set.off))*4 +
			int64(len(set.ownerNodes))*4 + int64(len(set.ownerOff))*4
	}
	if set.idx != nil && set.idx.mapped {
		b += set.idx.bytes()
	}
	return b
}

// HeapBytes reports the heap-resident remainder of the footprint.
func (set *Set) HeapBytes() int64 {
	b := set.mutableBytes()
	if !set.storageMapped {
		b += int64(len(set.nodes))*4 + int64(len(set.off))*4 +
			int64(len(set.ownerNodes))*4 + int64(len(set.ownerOff))*4
	}
	if set.idx != nil && !set.idx.mapped {
		b += set.idx.bytes()
	}
	return b
}
