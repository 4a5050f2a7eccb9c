package postings

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomLayout draws numItems items of 0..maxLen members each from [0, used),
// used <= n, so members in [used, n) have no postings. emptyEvery makes every
// emptyEvery-th item empty; within an item a member repeats with
// probability 1/4 (a walk revisiting a node).
func randomLayout(r *rand.Rand, numItems, used, maxLen, emptyEvery int) (off, members []int32) {
	off = make([]int32, 1, numItems+1)
	for i := range numItems {
		start := len(members)
		if i%emptyEvery != 0 {
			for range r.Intn(maxLen + 1) {
				v := int32(r.Intn(used))
				if len(members) > start && r.Intn(4) == 0 {
					v = members[start+r.Intn(len(members)-start)]
				}
				members = append(members, v)
			}
		}
		off = append(off, int32(len(members)))
	}
	return off, members
}

// referenceIndex is the inverted index from its definition: every item in
// ascending order appends itself to the list of each member it holds — once,
// at the first occurrence, with dedupFirst — with the occurrence's offset
// from the item's start.
func referenceIndex(off, members []int32, dedupFirst bool) (items, pos map[int32][]int32) {
	items, pos = make(map[int32][]int32), make(map[int32][]int32)
	for i := range len(off) - 1 {
		seen := make(map[int32]bool)
		for j := off[i]; j < off[i+1]; j++ {
			v := members[j]
			if dedupFirst && seen[v] {
				continue
			}
			seen[v] = true
			items[v] = append(items[v], int32(i))
			pos[v] = append(pos[v], j-off[i])
		}
	}
	return items, pos
}

// TestBuildMatchesReference: the sharded counting sort, at every worker
// count and in both dedup modes, equals the definition on random layouts
// with repeated members, empty items and unused members, cut into one
// shard, a few, and the cap.
func TestBuildMatchesReference(t *testing.T) {
	cases := []struct {
		numItems, n, used, shards int
	}{
		{numItems: 500, n: 80, used: 60, shards: 1},
		{numItems: 4095, n: 10, used: 10, shards: 1},
		{numItems: 3*4096 + 17, n: 300, used: 250, shards: 3},
		{numItems: 2*5000 + 3, n: 5000, used: 4000, shards: 2},
		{numItems: 17 * 4096, n: 200, used: 150, shards: 16},
	}
	r := rand.New(rand.NewSource(7))
	for _, c := range cases {
		if got := NumShards(c.numItems, c.n); got != c.shards {
			t.Fatalf("NumShards(%d, %d) = %d, want %d", c.numItems, c.n, got, c.shards)
		}
		off, members := randomLayout(r, c.numItems, c.used, 6, 9)
		for _, dedup := range []bool{false, true} {
			wantItems, wantPos := referenceIndex(off, members, dedup)
			for _, p := range []int{1, 2, 4, 0} {
				t.Run(fmt.Sprintf("items=%d/n=%d/dedup=%v/P=%d", c.numItems, c.n, dedup, p), func(t *testing.T) {
					csr := Build(c.n, off, members, dedup, p)
					if len(csr.Off) != c.n+1 || csr.Off[0] != 0 || int(csr.Off[c.n]) != len(csr.Item) {
						t.Fatalf("offsets: len %d, first %d, last %d for %d postings", len(csr.Off), csr.Off[0], csr.Off[len(csr.Off)-1], len(csr.Item))
					}
					if (csr.Pos != nil) != dedup {
						t.Fatalf("Pos present %v, want %v", csr.Pos != nil, dedup)
					}
					for v := range int32(c.n) {
						lo, hi := csr.Off[v], csr.Off[v+1]
						if !slices.Equal(csr.Item[lo:hi], wantItems[v]) {
							t.Fatalf("member %d: items %v, want %v", v, csr.Item[lo:hi], wantItems[v])
						}
						if dedup && !slices.Equal(csr.Pos[lo:hi], wantPos[v]) {
							t.Fatalf("member %d: pos %v, want %v", v, csr.Pos[lo:hi], wantPos[v])
						}
						if v >= int32(c.used) && hi != lo {
							t.Fatalf("unused member %d has %d postings", v, hi-lo)
						}
					}
				})
			}
		}
	}
}
