package walks

import (
	"fmt"

	"ovm/internal/postings"
)

// IndexSnapshot is the portable form of the node → walk postings index, in
// either backing: raw CSR arrays or the compact delta+varint form. The v3
// index format persists it next to the walk storage so a loaded artifact
// skips the counting-sort rebuild entirely; with Mapped set, the slices
// alias the read-only file region and the Set adopts them zero-copy.
type IndexSnapshot struct {
	Off, Walk, Pos []int32 // raw backing (nil when Compact is set)

	Compact *postings.Compact // compact backing (nil when raw)

	Mapped bool
}

// IndexSnapshot captures the set's postings index, or nil if none is
// built: the base's own when there is no overlay (the slices alias it;
// treat them as immutable), else base + overlay folded into fresh raw
// arrays, equal to EnsureIndex over Snapshot's arrays.
func (set *Set) IndexSnapshot() *IndexSnapshot {
	if set.idx == nil {
		return nil
	}
	idx := set.foldIndex()
	return &IndexSnapshot{
		Off:     idx.off,
		Walk:    idx.walk,
		Pos:     idx.pos,
		Compact: idx.compact,
		Mapped:  idx.mapped,
	}
}

// AdoptIndex installs a stored postings index as the base's instead of
// rebuilding it with EnsureIndex. The index is verified exactly equal to
// what EnsureIndex would produce, by a single merge pass over the base walk
// storage: node u's expected postings are precisely u's first occurrences
// across walks in ascending walk order, so each first occurrence must
// match u's next unconsumed posting and every posting must be consumed.
// O(walk elements + postings); an incomplete or corrupted index is
// rejected before it can influence truncation or gains.
func (set *Set) AdoptIndex(is *IndexSnapshot) error {
	n := set.n
	if is.Compact != nil {
		c := is.Compact
		if len(c.Off) != n+1 {
			return fmt.Errorf("walks: index covers %d nodes, want %d", len(c.Off)-1, n)
		}
		if !c.HasPos {
			return fmt.Errorf("walks: compact index lacks positions")
		}
		if err := c.CheckTables(); err != nil {
			return fmt.Errorf("walks: %w", err)
		}
		if err := set.verifyCompactMerge(c); err != nil {
			return err
		}
		set.idx = &walkIndex{compact: c, mapped: is.Mapped}
		return nil
	}
	if len(is.Off) != n+1 || is.Off[0] != 0 {
		return fmt.Errorf("walks: index offsets cover %d nodes, want %d", len(is.Off)-1, n)
	}
	for u := 0; u < n; u++ {
		if is.Off[u+1] < is.Off[u] {
			return fmt.Errorf("walks: index offsets not monotone at node %d", u)
		}
	}
	total := int(is.Off[n])
	if len(is.Walk) != total || len(is.Pos) != total {
		return fmt.Errorf("walks: index arrays have %d/%d postings, offsets say %d", len(is.Walk), len(is.Pos), total)
	}
	cursor := append([]int32(nil), is.Off[:n]...)
	if err := set.verifyIndexMerge(func(u int32) (int32, int32, bool) {
		p := cursor[u]
		if p >= is.Off[u+1] {
			return 0, 0, false
		}
		cursor[u] = p + 1
		return is.Walk[p], is.Pos[p], true
	}); err != nil {
		return err
	}
	for u := 0; u < n; u++ {
		if cursor[u] != is.Off[u+1] {
			return fmt.Errorf("walks: index lists node %d in a walk that does not contain it", u)
		}
	}
	set.idx = &walkIndex{off: is.Off, walk: is.Walk, pos: is.Pos, mapped: is.Mapped}
	return nil
}

// verifyIndexMerge replays the index-build order over the walk storage —
// first occurrences per walk, walks ascending — and checks each against
// the candidate index's next posting for that node (next returns ok=false
// when the node's postings are exhausted).
func (set *Set) verifyIndexMerge(next func(u int32) (walk, pos int32, ok bool)) error {
	stamp := make([]int32, set.n)
	for i := range stamp {
		stamp[i] = -1
	}
	for w := 0; w < set.NumWalks(); w++ {
		for p := set.off[w]; p < set.off[w+1]; p++ {
			u := set.nodes[p]
			if stamp[u] == int32(w) {
				continue
			}
			stamp[u] = int32(w)
			iw, rel, ok := next(u)
			if !ok || iw != int32(w) || rel != p-set.off[w] {
				return fmt.Errorf("walks: index postings of node %d disagree with walk %d", u, w)
			}
		}
	}
	return nil
}

// verifyCompactMerge is verifyIndexMerge over a compact index whose tables
// passed CheckTables, decoding each node's postings with a Checked
// iterator: the one pass validates the payload and compares it with the
// walks, and every node's bytes must be read to their end.
func (set *Set) verifyCompactMerge(c *postings.Compact) error {
	cursors := make([]postings.Checked, set.n)
	stamp := make([]int32, set.n)
	for u := range cursors {
		cursors[u] = c.Checked(int32(u))
		stamp[u] = -1
	}
	for w := range int32(set.NumWalks()) {
		lo, hi := set.off[w], set.off[w+1]
		for p, u := range set.nodes[lo:hi] {
			if stamp[u] == w {
				continue
			}
			stamp[u] = w
			iw, rel, ok, err := cursors[u].Next()
			if err != nil {
				return fmt.Errorf("walks: node %d: %w", u, err)
			}
			if !ok || iw != w || rel != int32(p) {
				return fmt.Errorf("walks: index postings of node %d disagree with walk %d", u, w)
			}
		}
	}
	for u := range cursors {
		if !cursors[u].Done() {
			return fmt.Errorf("walks: index lists node %d in a walk that does not contain it", u)
		}
	}
	return nil
}
