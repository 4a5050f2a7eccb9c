package im

import (
	"ovm/internal/engine"
	"ovm/internal/graph"
	"ovm/internal/obs"
	"ovm/internal/postings"
	"ovm/internal/sampling"
)

// RRCollection accumulates reverse-reachable sets in flat storage together
// with the node → set inverted index needed by greedy coverage.
//
// Generation is sharded over the engine worker pool: RR set number i (a
// global, monotonically increasing index across Add calls) always consumes
// its own random substream str.At(i), so the collection's contents are
// bit-identical for every parallelism value and independent of how Add
// batches interleave with worker scheduling.
type RRCollection struct {
	g           *graph.Graph
	model       Model
	str         sampling.Stream
	parallelism int

	nodes []int32 // concatenated set members
	off   []int32 // len numSets+1

	// Inverted index (node → ascending set ids), rebuilt lazily by
	// buildIndex; indexed is the number of sets it covers.
	idxNodes []int32 // concatenated set ids per node
	idxOff   []int32 // len n+1
	indexed  int

	// Per-worker sampling scratch, reused across Add calls.
	scratchVisited [][]bool
	scratchQueue   [][]int32
}

// NewRRCollection prepares an empty collection for the given graph/model.
// str seeds the per-set substream family; parallelism follows the engine
// convention (0 = GOMAXPROCS, 1 = serial).
func NewRRCollection(g *graph.Graph, model Model, str sampling.Stream, parallelism int) *RRCollection {
	return &RRCollection{
		g:           g,
		model:       model,
		str:         str,
		parallelism: parallelism,
		off:         []int32{0},
	}
}

// NumSets returns the number of RR sets generated so far.
func (c *RRCollection) NumSets() int { return len(c.off) - 1 }

// Set returns the members of set i (aliases internal storage).
func (c *RRCollection) Set(i int) []int32 { return c.nodes[c.off[i]:c.off[i+1]] }

// rrShard is one shard's locally-buffered output: concatenated members plus
// per-set lengths, in set-index order.
type rrShard struct {
	nodes []int32
	lens  []int32
}

// Add generates count new RR sets from uniformly random roots, sharded over
// the worker pool and merged in set-index order.
func (c *RRCollection) Add(count int) {
	if count <= 0 {
		return
	}
	n := c.g.N()
	base := c.NumSets()
	if w := engine.Workers(c.parallelism); len(c.scratchVisited) < w {
		c.scratchVisited = make([][]bool, w)
		c.scratchQueue = make([][]int32, w)
	}
	numShards := engine.NumShards(count, 64, 256)
	shards, _ := engine.Map(c.parallelism, numShards, func(worker, sh int) (rrShard, error) {
		lo, hi := engine.ShardRange(count, numShards, sh)
		out := rrShard{lens: make([]int32, 0, hi-lo)}
		if c.scratchVisited[worker] == nil {
			c.scratchVisited[worker] = make([]bool, n)
		}
		visited := c.scratchVisited[worker]
		queue := c.scratchQueue[worker]
		for i := lo; i < hi; i++ {
			rng := c.str.At(uint64(base + i))
			root := int32(rng.Intn(n))
			start := len(out.nodes)
			switch c.model {
			case IC:
				out.nodes, queue = sampleIC(c.g, root, rng, out.nodes, visited, queue)
			case LT:
				out.nodes = sampleLT(c.g, root, rng, out.nodes, visited)
			}
			out.lens = append(out.lens, int32(len(out.nodes)-start))
		}
		c.scratchQueue[worker] = queue
		return out, nil
	})
	for _, sh := range shards {
		for _, l := range sh.lens {
			c.off = append(c.off, c.off[len(c.off)-1]+l)
		}
		c.nodes = append(c.nodes, sh.nodes...)
	}
	c.indexed = 0 // invalidate index
	if obs.CostEnabled() {
		rrSetsSampled.Add(int64(count))
		rrDrawAdvances.Add(int64(count))
	}
}

// sampleIC performs a reverse randomized BFS: each in-edge is live with
// probability equal to its weight. Members are appended to nodes; visited
// must be all-false on entry and is restored before returning.
func sampleIC(g *graph.Graph, root int32, rng sampling.Source, nodes []int32, visited []bool, queue []int32) ([]int32, []int32) {
	q := queue[:0]
	q = append(q, root)
	visited[root] = true
	start := len(nodes)
	nodes = append(nodes, root)
	for head := 0; head < len(q); head++ {
		v := q[head]
		src, w := g.InNeighbors(v)
		for i, u := range src {
			if visited[u] {
				continue
			}
			if rng.Float64() < w[i] {
				visited[u] = true
				q = append(q, u)
				nodes = append(nodes, u)
			}
		}
	}
	for _, v := range nodes[start:] {
		visited[v] = false
	}
	return nodes, q[:0]
}

// sampleLT samples the live-edge path of the LT model: each node picks
// exactly one in-neighbor with probability equal to the edge weight
// (in-weights sum to 1 on a column-stochastic graph); the walk stops when
// it revisits a node.
func sampleLT(g *graph.Graph, root int32, rng sampling.Source, nodes []int32, visited []bool) []int32 {
	start := len(nodes)
	cur := root
	visited[root] = true
	nodes = append(nodes, root)
	for {
		src, w := g.InNeighbors(cur)
		if len(src) == 0 {
			break
		}
		x := rng.Float64()
		next := int32(-1)
		acc := 0.0
		for i, u := range src {
			acc += w[i]
			if x < acc {
				next = u
				break
			}
		}
		if next < 0 { // residual probability mass: no live in-edge
			break
		}
		if visited[next] {
			break
		}
		visited[next] = true
		nodes = append(nodes, next)
		cur = next
	}
	for _, v := range nodes[start:] {
		visited[v] = false
	}
	return nodes
}

func (c *RRCollection) buildIndex() {
	if c.indexed == c.NumSets() {
		return
	}
	// RR-set members are already distinct within a set (the samplers dedup
	// via the visited mask), so no first-occurrence pass is needed.
	csr := postings.Build(c.g.N(), c.off, c.nodes, false)
	c.idxOff = csr.Off
	c.idxNodes = csr.Item
	c.indexed = c.NumSets()
}

// GreedyCover selects k nodes greedily maximizing the number of covered RR
// sets; it returns the seeds and the covered fraction of sets.
func (c *RRCollection) GreedyCover(k int) ([]int32, float64) {
	c.buildIndex()
	n := c.g.N()
	numSets := c.NumSets()
	if numSets == 0 {
		seeds := make([]int32, 0, k)
		for v := int32(0); len(seeds) < k && v < int32(n); v++ {
			seeds = append(seeds, v)
		}
		return seeds, 0
	}
	degree := make([]int32, n)
	for v := 0; v < n; v++ {
		degree[v] = c.idxOff[v+1] - c.idxOff[v]
	}
	coveredSet := make([]bool, numSets)
	seeds := make([]int32, 0, k)
	coveredCount := 0
	// Coverage work is accumulated locally across picks (this loop is
	// serial) and flushed to the counters once at the end.
	var scanned int64
	for len(seeds) < k {
		best, bestDeg := int32(-1), int32(-1)
		for v := int32(0); v < int32(n); v++ {
			if degree[v] > bestDeg {
				best, bestDeg = v, degree[v]
			}
		}
		if best < 0 {
			break
		}
		seeds = append(seeds, best)
		degree[best] = -1 // never re-pick
		covering := c.idxNodes[c.idxOff[best]:c.idxOff[best+1]]
		scanned += int64(len(covering))
		for _, sid := range covering {
			if coveredSet[sid] {
				continue
			}
			coveredSet[sid] = true
			coveredCount++
			for _, u := range c.Set(int(sid)) {
				if degree[u] > 0 {
					degree[u]--
				}
			}
		}
	}
	if obs.CostEnabled() {
		rrSetsScanned.Add(scanned)
		postings.Account(scanned, 0)
	}
	return seeds, float64(coveredCount) / float64(numSets)
}
