package walks

import (
	"fmt"

	"ovm/internal/mmapio"
	"ovm/internal/postings"
)

// IndexSnapshot is the portable form of the node → walk postings index:
// the compact delta+varint form an index file stores, which the v3 format
// persists next to the walk storage so a loaded artifact skips the
// counting-sort rebuild entirely. With Region set, the slices alias that
// read-only file mapping and the Set adopts them zero-copy. A live set hands
// its postings out in this form with CompactPostings.
type IndexSnapshot struct {
	Compact *postings.Compact
	Region  *mmapio.Region
}

// AdoptIndex installs a stored postings index as the base's instead of
// rebuilding it with EnsureIndex. The index is verified exactly equal to
// what EnsureIndex would produce, by a single merge pass over the base walk
// storage: node u's expected postings are precisely u's first occurrences
// across walks in ascending walk order, so each first occurrence must
// match u's next unconsumed posting and every posting must be consumed.
// O(walk elements + postings); an incomplete or corrupted index is
// rejected before it can influence truncation or gains. The pass releases
// the mapped walk pages behind it, and the mapped postings once it ends.
func (set *Set) AdoptIndex(is *IndexSnapshot) error {
	c := is.Compact
	if c == nil {
		return fmt.Errorf("walks: index snapshot has no postings")
	}
	if len(c.Off) != set.n+1 {
		return fmt.Errorf("walks: index covers %d nodes, want %d", len(c.Off)-1, set.n)
	}
	if !c.HasPos {
		return fmt.Errorf("walks: compact index lacks positions")
	}
	if err := c.CheckTables(); err != nil {
		return fmt.Errorf("walks: %w", err)
	}
	err := set.verifyCompactMerge(c)
	// The merge read every posting: none is needed again until a request or
	// a repair reads it.
	releaseCompact(is.Region, c)
	if err != nil {
		return err
	}
	set.idx = &walkIndex{compact: c, region: is.Region}
	return nil
}

// verifyCompactMerge replays the index-build order over the walk storage —
// first occurrences per walk, walks ascending — and checks each against the
// node's next posting in c, whose tables passed CheckTables. Each node's
// postings are decoded with a Checked iterator, so the one pass validates
// the payload and compares it with the walks, and every node's bytes must
// be read to their end.
func (set *Set) verifyCompactMerge(c *postings.Compact) error {
	cursors := make([]postings.Checked, set.n)
	stamp := make([]int32, set.n)
	for u := range cursors {
		cursors[u] = c.Checked(int32(u))
		stamp[u] = -1
	}
	nodes, off := set.region.Trail(asBytes(set.nodes)), set.region.Trail(asBytes(set.off))
	defer nodes.Finish()
	defer off.Finish()
	for w := range int32(set.NumWalks()) {
		lo, hi := set.off[w], set.off[w+1]
		if w%passChunk == 0 {
			nodes.Advance(4 * int(lo))
			off.Advance(4 * int(w))
		}
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
