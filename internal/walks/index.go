package walks

import (
	"ovm/internal/mmapio"
	"ovm/internal/postings"
)

// walkIndex is the node → walk postings index behind incremental greedy
// selection: for every node, the walks containing it (ascending by walk id)
// together with the node's first-occurrence position inside each walk. A
// set's base index is derived purely from the base's immutable walk storage
// (nodes/off), so it is independent of truncation state and of later
// repairs, and is shared between Clones and repaired successors — a posting
// past the current truncation point simply refers to the inactive suffix
// and is skipped wherever the active prefix matters, and a posting of a
// walk the overlay replaced is masked by the overlay's bitmap. Positions are
// walk-relative, so a posting never depends on where its walk is stored.
//
// The index has two interchangeable in-memory backings: raw CSR arrays
// (off/walk/pos, built by EnsureIndex, a fold, and every overlay's own
// postings) or a delta+varint compact form (adopted from a v3 index file,
// possibly aliasing a read-only mapped region). Set.postings reads both and
// yields identical postings in identical order, so the choice is invisible
// in results. Only the compact form leaves the set (CompactPostings,
// IndexSnapshot): the raw one is never stored.
type walkIndex struct {
	off  []int32 // len n+1: node v's postings are walk/pos[off[v]:off[v+1]]
	walk []int32 // walk ids, ascending per node
	pos  []int32 // first-occurrence offset from the walk's start

	compact *postings.Compact // alternative backing; off/walk/pos nil when set
	region  *mmapio.Region    // the read-only mapping compact aliases, or nil
}

// bytes reports the index storage footprint.
func (idx *walkIndex) bytes() int64 {
	if idx.compact != nil {
		return idx.compact.Bytes()
	}
	return int64(len(idx.off))*4 + int64(len(idx.walk))*4 + int64(len(idx.pos))*4
}

// EnsureIndex builds the base's node → walk postings index if the set does
// not carry one yet: one counting sort over the base walk storage
// (postings.Build), sharded by walk range on parallelism workers (0 =
// GOMAXPROCS, 1 = serial). The shard geometry depends only on the set's
// size — one shard per max(n, 4096) walks, rounded down, at most 16
// (postings.NumShards) — so the index is identical at every worker count
// and the per-shard scratch stays within 8 B per walk. Estimators build it automatically; serving layers
// call it once on a loaded artifact so every per-query Clone and every
// repaired successor shares the same read-only index instead of each paying
// the build. Idempotent; not safe for concurrent first calls on the same
// Set (index a base set before cloning it across goroutines).
//
// Called without an argument it runs at parallelism 0. That form remains
// for the frozen benchmark/trace.go; the benchmark re-base (ROADMAP item 1)
// makes the argument required.
func (set *Set) EnsureIndex(parallelism ...int) {
	if set.idx != nil {
		return
	}
	p := 0
	if len(parallelism) > 0 {
		p = parallelism[0]
	}
	csr := postings.Build(set.n, set.off, set.nodes, true, p)
	set.idx = &walkIndex{off: csr.Off, walk: csr.Item, pos: csr.Pos}
}

// HasIndex reports whether the set carries a postings index.
func (set *Set) HasIndex() bool { return set.idx != nil }
