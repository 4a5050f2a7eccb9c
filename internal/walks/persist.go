package walks

import (
	"fmt"
	"slices"

	"ovm/internal/graph"
	"ovm/internal/postings"
)

// Snapshot is the portable, pristine (no seeds applied) state of a walk
// Set: the concatenated walk sequences plus the owner grouping. Truncation
// state is excluded on purpose — the end pointers of an untruncated set are
// derivable (each walk ends at its last stored node), and persisting a set
// mid-selection would bake one query's seeds into every future query.
//
// A Snapshot produced by Set.Snapshot and restored with FromSnapshot on the
// same graph yields a Set that behaves bit-identically to the freshly
// generated original, which is what lets ovmd-style daemons persist walk
// generation once and load it at startup.
type Snapshot struct {
	Horizon    int
	Nodes      []int32 // concatenated walk sequences
	Off        []int32 // len numWalks+1
	OwnerNodes []int32 // distinct start nodes, ascending
	OwnerOff   []int32 // CSR into walk ids per owner

	// Mapped marks the slices as aliasing a read-only mapped region (set
	// by the v3 zero-copy loader). The restored Set keeps them as its base,
	// which nothing writes: repairs add an overlay beside it.
	Mapped bool
}

// Snapshot captures the set's pristine state as flat arrays in walk-id
// order. A set without an overlay hands out its base arrays (treat them as
// immutable); a repaired one folds base + overlay into fresh heap arrays,
// the same arrays generating the set afresh would produce. It fails if
// seeds have been applied: truncation is irreversible, so a truncated set
// no longer represents the generation-time artifact.
func (set *Set) Snapshot() (*Snapshot, error) {
	if len(set.seeds) > 0 {
		return nil, fmt.Errorf("walks: cannot snapshot a set with %d seeds applied", len(set.seeds))
	}
	nodes, off := set.flatten()
	return &Snapshot{
		Horizon:    set.horizon,
		Nodes:      nodes,
		Off:        off,
		OwnerNodes: set.ownerNodes,
		OwnerOff:   set.ownerOff,
		Mapped:     set.storageMapped && set.ov == nil,
	}, nil
}

// EachNodes hands fn the set's walk elements in walk-id order — the flat
// node array Snapshot would build — as blocks that alias the base and the
// overlay (read-only, valid during the call), so an index writer streams
// base + overlay without folding them. A set without an overlay is one
// block.
func (set *Set) EachNodes(fn func([]int32) error) error {
	return set.eachRun(func(lo, hi int32) error {
		return fn(set.nodes[set.off[lo]:set.off[hi]])
	}, func(o *ovOwner) error {
		return fn(o.nodes)
	})
}

// offChunk is how many walk offsets EachOff hands out at a time.
const offChunk = 4096

// EachOff hands fn the walk offsets Snapshot would build (len NumWalks+1,
// starting at 0), in chunks: the base's own array when there is no overlay,
// else offsets shifted into a buffer that is reused between calls.
func (set *Set) EachOff(fn func([]int32) error) error {
	if set.ov == nil {
		return fn(set.off)
	}
	buf := make([]int32, 1, offChunk)
	at := int32(0) // elements emitted so far
	put := func(off []int32, shift int32) error {
		for len(off) > 0 {
			if len(buf) == cap(buf) {
				if err := fn(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			k := min(len(off), cap(buf)-len(buf))
			at := len(buf)
			buf = buf[:at+k]
			for i, x := range off[:k] {
				buf[at+i] = x + shift
			}
			off = off[k:]
		}
		return nil
	}
	err := set.eachRun(func(lo, hi int32) error {
		shift := at - set.off[lo]
		at += set.off[hi] - set.off[lo]
		return put(set.off[lo+1:hi+1], shift)
	}, func(o *ovOwner) error {
		shift := at
		at += o.off[len(o.off)-1]
		return put(o.off[1:], shift)
	})
	if err != nil {
		return err
	}
	return fn(buf)
}

// eachRun visits the set in walk-id order as maximal runs of base walks
// [lo, hi) and replaced owners, skipping empty runs.
func (set *Set) eachRun(base func(lo, hi int32) error, replaced func(o *ovOwner) error) error {
	cur := int32(0)
	if ov := set.ov; ov != nil {
		for i := range ov.owners {
			o := &ov.owners[i]
			if o.first > cur {
				if err := base(cur, o.first); err != nil {
					return err
				}
			}
			if err := replaced(o); err != nil {
				return err
			}
			cur = o.first + int32(len(o.off)-1)
		}
	}
	if nw := int32(set.NumWalks()); nw > cur {
		return base(cur, nw)
	}
	return nil
}

// Owners returns the owner grouping: distinct start nodes ascending, and
// the CSR of their walk ids (shared; do not modify). Repairs never change
// it.
func (set *Set) Owners() (nodes, off []int32) { return set.ownerNodes, set.ownerOff }

// CompactPostings returns the set's postings index in the compact form an
// index file stores, with its payload as chunks whose concatenation is the
// Data field: the base's own index when it is compact and there is no
// overlay, else base + overlay encoded node by node from the merged
// postings, which allocates the compact form and nothing else. A node the
// overlay leaves alone — no replaced walk and no regenerated one contains
// it — has the base's postings, and a compact base's encoding of them is
// copied as it is. Nil without an index.
func (set *Set) CompactPostings() (*postings.Compact, [][]byte) {
	if set.idx == nil {
		return nil, nil
	}
	base := set.idx.compact
	if base != nil && set.ov == nil {
		return base, [][]byte{base.Data}
	}
	entries, _ := set.indexCost() // base + overlay: a bound, masked postings included
	e := postings.NewEncoder(set.n, true, postings.DefaultBlockSize, int(entries))
	var touched []bool
	if base != nil && base.BlockSize == postings.DefaultBlockSize {
		touched = set.overlayNodes()
	}
	for u := range set.n {
		if touched != nil && !touched[u] {
			e.Copy(base, int32(u))
			continue
		}
		it := set.postings(int32(u))
		for ws, rels := it.block(); len(ws) > 0; ws, rels = it.block() {
			e.Add(ws, rels)
		}
		e.End()
	}
	return e.Finish()
}

// overlayNodes marks the nodes whose postings the overlay changes: those on
// a replaced walk as the base stores it, and those on a regenerated one.
func (set *Set) overlayNodes() []bool {
	touched := make([]bool, set.n)
	ov := set.ov
	for u := range set.n {
		touched[u] = ov.post.off[u+1] > ov.post.off[u]
	}
	for _, o := range ov.owners {
		for _, u := range set.nodes[set.off[o.first]:set.off[o.first+int32(len(o.off)-1)]] {
			touched[u] = true
		}
	}
	return touched
}

// FromSnapshot reconstructs a pristine Set over g, validating every
// structural invariant so corrupted or adversarial snapshots are rejected
// rather than crashing later scans. The snapshot's slices are adopted (not
// copied); do not mutate them afterwards.
func FromSnapshot(g *graph.Graph, s *Snapshot) (*Set, error) {
	n := g.N()
	if s.Horizon < 0 {
		return nil, fmt.Errorf("walks: snapshot has negative horizon %d", s.Horizon)
	}
	if len(s.Off) == 0 || s.Off[0] != 0 {
		return nil, fmt.Errorf("walks: snapshot walk offsets must start at 0")
	}
	numWalks := len(s.Off) - 1
	for w := 0; w < numWalks; w++ {
		if l := s.Off[w+1] - s.Off[w]; l < 1 || int(l) > s.Horizon+1 {
			return nil, fmt.Errorf("walks: snapshot walk %d has length %d, want 1..%d", w, l, s.Horizon+1)
		}
	}
	if int(s.Off[numWalks]) != len(s.Nodes) {
		return nil, fmt.Errorf("walks: snapshot stores %d walk elements but offsets cover %d", len(s.Nodes), s.Off[numWalks])
	}
	for i, v := range s.Nodes {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("walks: snapshot element %d references node %d, want [0,%d)", i, v, n)
		}
	}
	if len(s.OwnerOff) != len(s.OwnerNodes)+1 || len(s.OwnerOff) == 0 || s.OwnerOff[0] != 0 {
		return nil, fmt.Errorf("walks: snapshot owner offsets malformed")
	}
	for i, v := range s.OwnerNodes {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("walks: snapshot owner %d is node %d, want [0,%d)", i, v, n)
		}
		if i > 0 && s.OwnerNodes[i-1] >= v {
			return nil, fmt.Errorf("walks: snapshot owners not strictly ascending at %d", i)
		}
		if s.OwnerOff[i+1] <= s.OwnerOff[i] {
			return nil, fmt.Errorf("walks: snapshot owner %d owns no walks", i)
		}
	}
	if int(s.OwnerOff[len(s.OwnerNodes)]) != numWalks {
		return nil, fmt.Errorf("walks: snapshot owners cover %d walks, want %d", s.OwnerOff[len(s.OwnerNodes)], numWalks)
	}
	// Every walk must start at its owner node: walk w of owner i begins with
	// OwnerNodes[i].
	for i := range s.OwnerNodes {
		for w := s.OwnerOff[i]; w < s.OwnerOff[i+1]; w++ {
			if s.Nodes[s.Off[w]] != s.OwnerNodes[i] {
				return nil, fmt.Errorf("walks: snapshot walk %d starts at %d, want owner %d", w, s.Nodes[s.Off[w]], s.OwnerNodes[i])
			}
		}
	}
	return &Set{
		n:             n,
		horizon:       s.Horizon,
		nodes:         s.Nodes,
		off:           s.Off,
		ownerNodes:    s.OwnerNodes,
		ownerOff:      s.OwnerOff,
		storageMapped: s.Mapped,
	}, nil
}

// Clone returns an independent Set sharing the immutable walk storage
// (base, overlay and postings index) but with private truncation state —
// created here for a pristine set, copied otherwise — so concurrent queries
// can each run their own greedy selection over one loaded artifact without
// copying the walks themselves.
func (set *Set) Clone() *Set {
	c := *set
	if set.end == nil {
		c.truncState()
		return &c
	}
	c.end = slices.Clone(set.end)
	c.inSeed = slices.Clone(set.inSeed)
	c.seeds = slices.Clone(set.seeds)
	return &c
}
