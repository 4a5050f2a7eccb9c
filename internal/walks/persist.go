package walks

import (
	"fmt"
	"slices"
	"unsafe"

	"ovm/internal/graph"
	"ovm/internal/mmapio"
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

	// Region is the read-only mapping the slices alias (set by the v3
	// zero-copy loader), nil when they are on the heap. The restored Set
	// keeps them as its base, which nothing writes: repairs add an overlay
	// beside it. Passes over them release the pages behind their cursors.
	Region *mmapio.Region
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
	s := &Snapshot{
		Horizon:    set.horizon,
		Nodes:      nodes,
		Off:        off,
		OwnerNodes: set.ownerNodes,
		OwnerOff:   set.ownerOff,
	}
	if set.ov == nil {
		s.Region = set.region
	}
	return s, nil
}

// passChunk is how many walks, or array elements, a pass over a base
// handles between two looks at its release trail (mmapio.Trail), which
// releases a mapped base's pages once a window of them lies behind.
const passChunk = 1 << 14

// asBytes views xs as its memory image, for releasing the pages under it.
func asBytes[E int32 | int64](xs []E) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*int(unsafe.Sizeof(E(0))))
}

// releaseCompact releases the pages under c, which aliases r (or not).
func releaseCompact(r *mmapio.Region, c *postings.Compact) {
	r.Release(asBytes(c.Off))
	r.Release(asBytes(c.FirstBlock))
	r.Release(asBytes(c.BlockOff))
	r.Release(c.Data)
}

// EachNodes hands fn the set's walk elements in walk-id order — the flat
// node array Snapshot would build — as blocks that alias the base and the
// overlay (read-only, valid during the call), so an index writer streams
// base + overlay without folding them. Base runs are handed out at most
// passChunk elements at a time, and a mapped base's pages are released
// behind them.
func (set *Set) EachNodes(fn func([]int32) error) error {
	trail := set.region.Trail(asBytes(set.nodes))
	defer trail.Finish()
	return set.eachRun(func(lo, hi int32) error {
		for a, b := set.off[lo], set.off[hi]; a < b; {
			c := min(b, a+passChunk)
			if err := fn(set.nodes[a:c]); err != nil {
				return err
			}
			trail.Advance(4 * int(c))
			a = c
		}
		return nil
	}, func(o *ovOwner) error {
		return fn(o.nodes)
	})
}

// EachOff hands fn the walk offsets Snapshot would build (len NumWalks+1,
// starting at 0), passChunk at a time: the base's own array when there is
// no overlay, else offsets shifted into a buffer that is reused between
// calls. A mapped base's pages are released behind them.
func (set *Set) EachOff(fn func([]int32) error) error {
	trail := set.region.Trail(asBytes(set.off))
	defer trail.Finish()
	if set.ov == nil {
		for lo := 0; lo < len(set.off); lo += passChunk {
			hi := min(lo+passChunk, len(set.off))
			if err := fn(set.off[lo:hi]); err != nil {
				return err
			}
			trail.Advance(4 * hi)
		}
		return nil
	}
	buf := make([]int32, 1, passChunk)
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
		for lo < hi {
			h := min(hi, lo+passChunk)
			if err := put(set.off[lo+1:h+1], shift); err != nil {
				return err
			}
			trail.Advance(4 * int(h+1))
			lo = h
		}
		return nil
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
// copied as it is. The nodes are encoded in order, so a mapped base's pages
// are released behind the node being encoded. Nil without an index.
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
	var trail mmapio.Trail
	if base != nil {
		if base.BlockSize == postings.DefaultBlockSize {
			touched = set.overlayNodes()
		}
		trail = set.idx.region.Trail(base.Data)
		defer releaseCompact(set.idx.region, base)
	}
	for u := range set.n {
		if touched != nil && !touched[u] {
			e.Copy(base, int32(u))
		} else {
			it := set.postings(int32(u))
			for ws, rels := it.block(); len(ws) > 0; ws, rels = it.block() {
				e.Add(ws, rels)
			}
			e.End()
		}
		if base != nil {
			trail.Advance(int(base.BlockOff[base.FirstBlock[u+1]]))
		}
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
// copied); do not mutate them afterwards. The walks are checked in one pass,
// passChunk walks at a time, and a mapped snapshot's pages are released
// behind it.
func FromSnapshot(g *graph.Graph, s *Snapshot) (*Set, error) {
	n := g.N()
	if s.Horizon < 0 {
		return nil, fmt.Errorf("walks: snapshot has negative horizon %d", s.Horizon)
	}
	if len(s.Off) == 0 || s.Off[0] != 0 {
		return nil, fmt.Errorf("walks: snapshot walk offsets must start at 0")
	}
	numWalks := len(s.Off) - 1
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
	nodes, off := s.Region.Trail(asBytes(s.Nodes)), s.Region.Trail(asBytes(s.Off))
	owner := 0 // the owner of walk w0
	for w0 := 0; w0 < numWalks; w0 += passChunk {
		w1 := min(w0+passChunk, numWalks)
		var err error
		if owner, err = s.checkWalks(n, w0, w1, owner); err != nil {
			return nil, err
		}
		nodes.Advance(4 * int(s.Off[w1]))
		off.Advance(4 * (w1 + 1))
	}
	if int(s.Off[numWalks]) != len(s.Nodes) {
		return nil, s.coverError(numWalks)
	}
	nodes.Finish()
	off.Finish()
	return &Set{
		n:          n,
		horizon:    s.Horizon,
		nodes:      s.Nodes,
		off:        s.Off,
		ownerNodes: s.OwnerNodes,
		ownerOff:   s.OwnerOff,
		region:     s.Region,
	}, nil
}

// checkWalks checks walks [w0, w1) of a snapshot over n nodes, whose
// offsets ascend from 0 up to walk w0 and whose owner grouping is valid:
// each walk's length, the range of its nodes, and that it starts at its
// owner. owner is the owner of walk w0; it returns the owner of walk w1.
func (s *Snapshot) checkWalks(n, w0, w1, owner int) (int, error) {
	// The errors are built from the index alone, so the hot loops keep
	// nothing else live.
	nodes, off, maxLen := s.Nodes, s.Off, s.Horizon+1
	for w := w0; w < w1; w++ {
		if l := off[w+1] - off[w]; l < 1 || int(l) > maxLen {
			return 0, fmt.Errorf("walks: snapshot walk %d has length %d, want 1..%d", w, off[w+1]-off[w], maxLen)
		}
	}
	// The offsets ascend from 0 up to here, so this bounds every one of them.
	lo, hi := int(off[w0]), int(off[w1])
	if hi > len(nodes) {
		return 0, s.coverError(w1)
	}
	for i := lo; i < hi; i++ {
		if v := nodes[i]; v < 0 || int(v) >= n {
			return 0, fmt.Errorf("walks: snapshot element %d references node %d, want [0,%d)", i, nodes[i], n)
		}
	}
	for w := w0; w < w1; owner++ {
		end, want := min(int(s.OwnerOff[owner+1]), w1), s.OwnerNodes[owner]
		for ; w < end; w++ {
			if nodes[off[w]] != want {
				return 0, fmt.Errorf("walks: snapshot walk %d starts at %d, want owner %d", w, nodes[off[w]], want)
			}
		}
		if w < int(s.OwnerOff[owner+1]) {
			break // the owner's walks go on past w1
		}
	}
	return owner, nil
}

// coverError reports offsets that end past, or short of, the stored walk
// elements at walk w.
func (s *Snapshot) coverError(w int) error {
	return fmt.Errorf("walks: snapshot stores %d walk elements but offsets cover %d", len(s.Nodes), s.Off[w])
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
