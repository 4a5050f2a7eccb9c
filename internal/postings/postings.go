// Package postings builds member → item inverted indexes (CSR postings
// lists) over flat item → member layouts with a counting sort: count
// occurrences per member, prefix-sum into offsets, then fill in item order
// so every member's postings come out sorted by item id for free.
//
// The sort is sharded by item range and runs on the engine worker pool.
// Each shard counts its own items, a member-major prefix sum over (member,
// shard) hands every shard its own cursor into every member's postings, and
// the shards fill in parallel: a member's postings from shard s land after
// those of shards < s, so the CSR is bit-identical to a one-shard sort at
// every worker count. The geometry depends only on the layout's size
// (NumShards): a layout cut into several shards gives each at least
// max(n, 4096) items, so the per-shard count and stamp arrays (8 B per
// member each shard) stay within 8 B per item.
//
// It is the shared indexing substrate of the selection engines: im uses it
// for the node → RR-set index behind GreedyCover, walks uses it (with
// first-occurrence dedup) for the node → walk index behind incremental
// greedy truncation.
package postings

import "ovm/internal/engine"

// CSR is a member → item inverted index in compressed sparse row form:
// member v's postings are Item[Off[v]:Off[v+1]], ascending by item id.
// When built with first-occurrence dedup, Pos[p] is the posting's occurrence
// position relative to its item's start (the member's first offset within
// that item) — relative so a posting stays valid when items before its item
// grow or shrink; otherwise Pos is nil and every occurrence has a posting.
type CSR struct {
	Off  []int32
	Item []int32
	Pos  []int32
}

// NumShards is the number of item shards Build cuts numItems items over a
// universe of n members into: one per max(n, 4096) items, rounded down so
// that no shard holds fewer, capped at 16. It ignores the worker count.
func NumShards(numItems, n int) int {
	return max(1, min(16, numItems/max(n, 4096)))
}

// Build inverts a flat layout of numItems = len(off)-1 items, where item i
// holds members[off[i]:off[i+1]], into a member → item CSR over the member
// universe [0, n). With dedupFirst, a member occurring several times inside
// one item yields a single posting carrying its first occurrence's absolute
// position; without, every occurrence yields a posting and Pos is nil.
// parallelism sets the engine worker count (0 = GOMAXPROCS, 1 = serial);
// the result does not depend on it.
func Build(n int, off, members []int32, dedupFirst bool, parallelism int) CSR {
	numItems := len(off) - 1
	shards := NumShards(numItems, n)
	// cursor[s][v] counts shard s's postings of member v, then becomes the
	// slot its next one is written to. stamp[s][v] marks the item that last
	// posted v in shard s: i+1 in the count pass, -(i+1) in the fill pass.
	cursor := make([][]int32, shards)
	stamp := make([][]int32, shards)
	_ = engine.ForEachShard(parallelism, shards, func(_, s int) error {
		lo, hi := engine.ShardRange(numItems, shards, s)
		counts := make([]int32, n)
		if dedupFirst {
			st := make([]int32, n)
			for i := lo; i < hi; i++ {
				m := int32(i + 1)
				for _, v := range members[off[i]:off[i+1]] {
					if st[v] == m {
						continue
					}
					st[v] = m
					counts[v]++
				}
			}
			stamp[s] = st
		} else {
			for _, v := range members[off[lo]:off[hi]] {
				counts[v]++
			}
		}
		cursor[s] = counts
		return nil
	})
	csr := CSR{Off: make([]int32, n+1)}
	total := int32(0)
	for v := 0; v < n; v++ {
		csr.Off[v] = total
		for _, c := range cursor {
			c[v], total = total, total+c[v]
		}
	}
	csr.Off[n] = total
	csr.Item = make([]int32, total)
	if dedupFirst {
		csr.Pos = make([]int32, total)
	}
	_ = engine.ForEachShard(parallelism, shards, func(_, s int) error {
		lo, hi := engine.ShardRange(numItems, shards, s)
		c, st := cursor[s], stamp[s]
		for i := lo; i < hi; i++ {
			m := int32(-(i + 1))
			for j := off[i]; j < off[i+1]; j++ {
				v := members[j]
				if st != nil {
					if st[v] == m {
						continue
					}
					st[v] = m
				}
				p := c[v]
				c[v]++
				csr.Item[p] = int32(i)
				if csr.Pos != nil {
					csr.Pos[p] = j - off[i]
				}
			}
		}
		return nil
	})
	return csr
}
