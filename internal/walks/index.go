package walks

import (
	"ovm/internal/engine"
	"ovm/internal/obs"
	"ovm/internal/postings"
)

// walkIndex is the node → walk postings index behind incremental greedy
// selection: for every node, the walks containing it (ascending by walk id)
// together with the node's first-occurrence position inside each walk. The
// index is derived purely from the immutable walk storage (nodes/off), so it
// is independent of truncation state and can be shared between Clones — a
// posting past the current truncation point simply refers to the inactive
// suffix and is skipped wherever the active prefix matters. Positions are
// walk-relative (absolute = Set.off[w] + pos), so postings of untouched
// walks survive a Repair unchanged even when regenerated walks elsewhere
// shift the flat storage.
//
// The index has two interchangeable backings: raw CSR arrays (off/walk/pos,
// built by EnsureIndex) or a delta+varint compact form (adopted from a v3
// index file, possibly aliasing a read-only mapped region). Every consumer
// branches on the backing; both yield identical postings in identical
// order, so the choice is invisible in results.
type walkIndex struct {
	off  []int32 // len n+1: node v's postings are walk/pos[off[v]:off[v+1]]
	walk []int32 // walk ids, ascending per node
	pos  []int32 // first-occurrence offset from the walk's start

	compact *postings.Compact // alternative backing; off/walk/pos nil when set
	mapped  bool              // storage aliases a read-only mapped region
}

// bytes reports the index storage footprint.
func (idx *walkIndex) bytes() int64 {
	if idx.compact != nil {
		return idx.compact.Bytes()
	}
	return int64(len(idx.off))*4 + int64(len(idx.walk))*4 + int64(len(idx.pos))*4
}

// materialized returns a raw-CSR view of the index, decompressing the
// compact backing to fresh heap arrays if needed. Repair uses it: patching
// works on raw arrays, which also satisfies the copy-on-write contract —
// a repaired index never aliases the mapped file.
func (idx *walkIndex) materialized() *walkIndex {
	if idx.compact == nil {
		return idx
	}
	csr := idx.compact.ToCSR()
	off := csr.Off
	if idx.mapped {
		off = append([]int32(nil), off...) // ToCSR shares Off with the mapping
	}
	if obs.CostEnabled() {
		repairCopyBytes.Add(4 * int64(len(off)+len(csr.Item)+len(csr.Pos)))
	}
	return &walkIndex{off: off, walk: csr.Item, pos: csr.Pos}
}

// EnsureIndex builds the node → walk postings index if the set does not
// carry one yet (one counting-sort pass over the walk storage). Estimators
// build it automatically; serving layers call it once on a loaded artifact
// so every per-query Clone shares the same read-only index instead of each
// paying the build. Idempotent; not safe for concurrent first calls on the
// same Set (index a base set before cloning it across goroutines).
func (set *Set) EnsureIndex() {
	if set.idx != nil {
		return
	}
	csr := postings.Build(set.g.N(), set.off, set.nodes, true)
	set.idx = &walkIndex{off: csr.Off, walk: csr.Item, pos: csr.Pos}
}

// HasIndex reports whether the set carries a postings index.
func (set *Set) HasIndex() bool { return set.idx != nil }

// repairIndex derives the repaired set's postings index from the old set's
// by patching only the regenerated owners' walks: their stale postings are
// dropped from the per-node counts, their re-derived postings are spliced
// in, and every kept posting is copied verbatim — walk ids and the
// walk-relative positions are both stable across repair, so kept entries
// need no adjustment at all. The result is identical to a from-scratch
// EnsureIndex on the repaired set, at O(postings copy + regenerated
// elements) instead of a full counting sort with scattered writes.
func repairIndex(old, set *Set, invalid []bool, parallelism int) *walkIndex {
	oldIdx := old.idx
	anyInvalid := false
	for _, bad := range invalid {
		if bad {
			anyInvalid = true
			break
		}
	}
	if !anyInvalid {
		// Nothing regenerated: the flat storage is byte-identical, so the
		// immutable index can simply be shared.
		return oldIdx
	}
	oldIdx = oldIdx.materialized()
	n := set.g.N()
	invalidWalk := make([]bool, set.NumWalks())
	for i, bad := range invalid {
		if !bad {
			continue
		}
		for w := set.ownerOff[i]; w < set.ownerOff[i+1]; w++ {
			invalidWalk[w] = true
		}
	}
	// Per-node posting-count delta: −1 per stale posting (old content of a
	// regenerated walk), +1 per re-derived posting (new content). Both
	// passes replicate the first-occurrence dedup of the index build, so
	// the deltas match the stale/new posting counts exactly.
	delta := make([]int32, n)
	miniCnt := make([]int32, n+1)
	stamp := make([]int32, n) // w+1 marks the old-content pass, -(w+1) the new
	for i, bad := range invalid {
		if !bad {
			continue
		}
		for w := set.ownerOff[i]; w < set.ownerOff[i+1]; w++ {
			m := w + 1
			for p := old.off[w]; p < old.off[w+1]; p++ {
				if v := old.nodes[p]; stamp[v] != m {
					stamp[v] = m
					delta[v]--
				}
			}
			m = -(w + 1)
			for p := set.off[w]; p < set.off[w+1]; p++ {
				if v := set.nodes[p]; stamp[v] != m {
					stamp[v] = m
					delta[v]++
					miniCnt[v+1]++
				}
			}
		}
	}
	// Mini postings over just the regenerated walks (ascending walk id per
	// node by construction, same as the full build).
	for v := 0; v < n; v++ {
		miniCnt[v+1] += miniCnt[v]
	}
	miniOff := miniCnt
	miniWalk := make([]int32, miniOff[n])
	miniPos := make([]int32, miniOff[n])
	cursor := make([]int32, n)
	copy(cursor, miniOff[:n])
	for i := range stamp {
		stamp[i] = 0
	}
	for i, bad := range invalid {
		if !bad {
			continue
		}
		for w := set.ownerOff[i]; w < set.ownerOff[i+1]; w++ {
			m := w + 1
			for p := set.off[w]; p < set.off[w+1]; p++ {
				v := set.nodes[p]
				if stamp[v] == m {
					continue
				}
				stamp[v] = m
				c := cursor[v]
				cursor[v]++
				miniWalk[c] = w
				miniPos[c] = p - set.off[w]
			}
		}
	}
	idx := &walkIndex{off: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		idx.off[v+1] = idx.off[v] + (oldIdx.off[v+1] - oldIdx.off[v]) + delta[v]
	}
	idx.walk = make([]int32, idx.off[n])
	idx.pos = make([]int32, idx.off[n])
	// Per-node two-pointer merge of kept old postings with the mini
	// postings; destinations are disjoint node ranges, so the merge shards
	// freely over the worker pool.
	_ = engine.ForEachChunk(parallelism, n, 1024, 256, func(_, _, vLo, vHi int) error {
		for v := vLo; v < vHi; v++ {
			dst := idx.off[v]
			a, aEnd := oldIdx.off[v], oldIdx.off[v+1]
			b, bEnd := miniOff[v], miniOff[v+1]
			for {
				for a < aEnd && invalidWalk[oldIdx.walk[a]] {
					a++
				}
				if a >= aEnd && b >= bEnd {
					break
				}
				// Kept and mini entries never share a walk id, so plain <
				// ordering is a total merge order.
				if b >= bEnd || (a < aEnd && oldIdx.walk[a] < miniWalk[b]) {
					idx.walk[dst], idx.pos[dst] = oldIdx.walk[a], oldIdx.pos[a]
					a++
				} else {
					idx.walk[dst], idx.pos[dst] = miniWalk[b], miniPos[b]
					b++
				}
				dst++
			}
		}
		return nil
	})
	return idx
}
