package walks

import (
	"slices"
	"unsafe"

	"ovm/internal/postings"
)

// foldShare bounds an overlay: once it holds more than 1/foldShare of a
// set's walks it is full, and Repair folds base + overlay into a fresh heap
// base (RepairOverlay leaves that to a checkpoint). Below it, a repair
// writes O(n + overlay postings + walks/64) bytes; a fold writes the whole
// set once.
const foldShare = 16

// OverlayFull reports whether the overlay holds more than 1/foldShare of the
// walks: what makes Repair fold, and a checkpointed set's owner write it out.
func (set *Set) OverlayFull() bool {
	return set.ov != nil && set.ov.walks*foldShare > set.NumWalks()
}

// Rebase returns set, a repair of at, over base: a set that holds at's
// walks in other storage (a checkpoint of at, loaded, or an earlier
// Rebase of at). The result is base with the owners set regenerated after
// at laid over it as a repair would; those at's overlay held are in base
// already. It holds the walks and postings set does, in the same order,
// and writes nothing but its overlay. A set folded since at (its base is no
// longer at's) already holds its walks in storage of its own and is
// returned as is.
func (set *Set) Rebase(base, at *Set) *Set {
	if unsafe.SliceData(set.off) != unsafe.SliceData(at.off) {
		return set
	}
	out := *base
	out.end, out.inSeed, out.seeds = nil, nil, nil
	if set.ov == nil {
		return &out
	}
	var prev, fresh []ovOwner
	if at.ov != nil {
		prev = at.ov.owners
	}
	for _, o := range set.ov.owners {
		for len(prev) > 0 && prev[0].first < o.first {
			prev = prev[1:]
		}
		// Entries a repair keeps are shared with the set it repaired.
		if len(prev) > 0 && unsafe.SliceData(prev[0].nodes) == unsafe.SliceData(o.nodes) {
			continue
		}
		fresh = append(fresh, o)
	}
	if len(fresh) > 0 {
		out.ov, _ = base.nextOverlay(fresh)
	}
	return &out
}

// overlay is what repairs have replaced since a set's base: the regenerated
// owners' walks at their original walk ids, those walks' postings, and a
// bitmap of the replaced walks that masks the base's stale postings. It is
// immutable; a repair builds the next one, sharing every owner entry it does
// not regenerate.
type overlay struct {
	replaced []uint64  // bit w set: walk w is served from here, not from the base
	owners   []ovOwner // replaced owners, ascending by first walk id
	walks    int       // walks the owners hold
	post     walkIndex // raw postings of the overlay's walks, ascending walk id per node
}

// ovOwner holds one replaced owner's walks: walk first+k is
// nodes[off[k]:off[k+1]].
type ovOwner struct {
	first      int32
	off, nodes []int32
}

// ownerEntryBytes is what one ovOwner weighs in the owner table.
const ownerEntryBytes = int64(unsafe.Sizeof(ovOwner{}))

func (ov *overlay) has(w int32) bool { return ov.replaced[w>>6]&(1<<(w&63)) != 0 }

// owner returns the entry holding replaced walk w.
func (ov *overlay) owner(w int32) *ovOwner {
	lo, hi := 0, len(ov.owners)
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; ov.owners[mid].first <= w {
			lo = mid
		} else {
			hi = mid
		}
	}
	return &ov.owners[lo]
}

// bytes is the overlay's footprint: bitmap, owner table, walks and postings
// (0 for no overlay).
func (ov *overlay) bytes() int64 {
	if ov == nil {
		return 0
	}
	b := 8*int64(len(ov.replaced)) + ownerEntryBytes*int64(len(ov.owners)) + ov.post.bytes()
	for _, o := range ov.owners {
		b += 4 * int64(len(o.off)+len(o.nodes))
	}
	return b
}

// postBlock is how many postings postIter.block hands out at a time.
const postBlock = 32

// postIter yields one node's postings in ascending walk id: the base
// index's (raw or compact), less those of walks the overlay replaced, merged
// with the overlay's own. It is a stack value with no shared decode state,
// so concurrent gain scans each run their own.
type postIter struct {
	c        postings.Iterator
	compact  bool
	rw, rp   []int32  // raw base postings left
	replaced []uint64 // nil without an overlay
	ow, op   []int32  // overlay postings left
	bw, brel int32    // next live base posting, valid while bok
	bok      bool

	bufW, bufR [postBlock]int32 // the block handed out last, unless raw
}

// postings returns an iterator over node u's postings (the set must be
// indexed). This is the one way a node's walks are read.
func (set *Set) postings(u int32) postIter {
	var it postIter
	if c := set.idx.compact; c != nil {
		it.c, it.compact = c.Iter(u), true
	} else {
		lo, hi := set.idx.off[u], set.idx.off[u+1]
		it.rw, it.rp = set.idx.walk[lo:hi], set.idx.pos[lo:hi]
	}
	if ov := set.ov; ov != nil {
		lo, hi := ov.post.off[u], ov.post.off[u+1]
		it.replaced, it.ow, it.op = ov.replaced, ov.post.walk[lo:hi], ov.post.pos[lo:hi]
		it.pull()
	}
	return it
}

// pull loads the next base posting whose walk the overlay did not replace.
func (it *postIter) pull() {
	for {
		if it.compact {
			it.bw, it.brel, it.bok = it.c.Next()
		} else if it.bok = len(it.rw) > 0; it.bok {
			it.bw, it.brel = it.rw[0], it.rp[0]
			it.rw, it.rp = it.rw[1:], it.rp[1:]
		}
		if !it.bok || it.replaced[it.bw>>6]&(1<<(it.bw&63)) == 0 {
			return
		}
	}
}

// block returns the node's next postings — the walks containing it and its
// first-occurrence offset in each — as parallel slices, ascending by walk
// id; both are empty once the postings are drained. The slices stay valid
// until the next call. Handing out blocks keeps the readers' loops free of
// a call per posting: a raw base without an overlay hands out all its
// postings at once.
func (it *postIter) block() (ws, rels []int32) {
	n := 0
	switch {
	case it.replaced == nil && !it.compact:
		ws, rels, it.rw, it.rp = it.rw, it.rp, nil, nil
		return ws, rels
	case it.replaced == nil:
		for ; n < postBlock; n++ {
			w, rel, ok := it.c.Next()
			if !ok {
				break
			}
			it.bufW[n], it.bufR[n] = w, rel
		}
	default:
		for ; n < postBlock; n++ {
			if len(it.ow) > 0 && (!it.bok || it.ow[0] < it.bw) {
				it.bufW[n], it.bufR[n] = it.ow[0], it.op[0]
				it.ow, it.op = it.ow[1:], it.op[1:]
				continue
			}
			if !it.bok {
				break
			}
			it.bufW[n], it.bufR[n] = it.bw, it.brel
			it.pull()
		}
	}
	return it.bufW[:n], it.bufR[:n]
}

// eachFirst calls fn for the first occurrence of every distinct node of a
// walk, in walk order: the postings the walk contributes.
func eachFirst(seq []int32, fn func(u, pos int32)) {
	for p, u := range seq {
		if !slices.Contains(seq[:p], u) {
			fn(u, int32(p))
		}
	}
}

// nextOverlay builds the overlay a repair of set leaves behind: set's own,
// with regen (freshly drawn entries for the invalid owners, ascending) in
// place of those owners' entries, the bitmap and postings following suit.
// It returns the overlay and the bytes written for it: a new owner table,
// bitmap and postings, and regen's walks.
func (set *Set) nextOverlay(regen []ovOwner) (*overlay, int64) {
	prev := set.ov
	if prev == nil {
		prev = &overlay{}
	}
	ov := &overlay{owners: make([]ovOwner, 0, len(prev.owners)+len(regen))}
	// The owner table, and the superseded entries whose postings go stale.
	var stale []ovOwner
	kept := prev.owners
	for _, r := range regen {
		for len(kept) > 0 && kept[0].first < r.first {
			ov.owners, kept = append(ov.owners, kept[0]), kept[1:]
		}
		if len(kept) > 0 && kept[0].first == r.first {
			stale, kept = append(stale, kept[0]), kept[1:]
		}
		ov.owners = append(ov.owners, r)
	}
	ov.owners = append(ov.owners, kept...)
	for _, o := range ov.owners {
		ov.walks += len(o.off) - 1
	}

	ov.replaced = make([]uint64, (set.NumWalks()+63)/64)
	copy(ov.replaced, prev.replaced)
	for _, r := range regen {
		for w := r.first; w < r.first+int32(len(r.off)-1); w++ {
			ov.replaced[w>>6] |= 1 << (w & 63)
		}
	}

	ov.post = mergePostings(set.n, prev.post, stale, regen)
	p := &ov.post

	written := 8*int64(len(ov.replaced)) + ownerEntryBytes*int64(len(ov.owners)) + p.bytes()
	for _, r := range regen {
		written += 4 * int64(len(r.off)+len(r.nodes))
	}
	return ov, written
}

// mergePostings returns the postings of an overlay after a repair: prev's
// less those of the stale (superseded) entries' walks, merged per node with
// those of regen's walks, ascending walk id. Only the nodes those walks
// visit are merged; every run of other nodes keeps prev's postings, copied
// in one piece.
func mergePostings(n int, prev walkIndex, stale, regen []ovOwner) walkIndex {
	type posting struct{ u, w, rel int32 }
	var drawn []posting
	var keys []uint64 // node<<32 | index into drawn
	for _, r := range regen {
		for k := range len(r.off) - 1 {
			w := r.first + int32(k)
			eachFirst(r.nodes[r.off[k]:r.off[k+1]], func(u, rel int32) {
				keys = append(keys, uint64(u)<<32|uint64(len(drawn)))
				drawn = append(drawn, posting{u, w, rel})
			})
		}
	}
	// Sorted by node, walk order within one: regen's walks ascend, so the
	// order they were drawn in is theirs.
	slices.Sort(keys)
	fresh := make([]posting, len(keys))
	touched := make([]int32, len(keys))
	for i, k := range keys {
		fresh[i], touched[i] = drawn[uint32(k)], int32(k>>32)
	}
	total := len(prev.walk) + len(fresh)
	for _, o := range stale {
		for k := range len(o.off) - 1 {
			eachFirst(o.nodes[o.off[k]:o.off[k+1]], func(u, _ int32) {
				total--
				touched = append(touched, u)
			})
		}
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	// The stale entries' walks as a bitmap over their id span: every
	// posting of prev at a touched node is tested against it.
	var staleLo, staleHi int32
	var staleBits []uint64
	if len(stale) > 0 {
		last := stale[len(stale)-1]
		staleLo, staleHi = stale[0].first, last.first+int32(len(last.off)-1)
		staleBits = make([]uint64, (staleHi-staleLo+63)/64)
		for _, o := range stale {
			for w := o.first - staleLo; w < o.first-staleLo+int32(len(o.off)-1); w++ {
				staleBits[w>>6] |= 1 << (w & 63)
			}
		}
	}
	isStale := func(w int32) bool {
		w -= staleLo
		return w >= 0 && w < staleHi-staleLo && staleBits[w>>6]&(1<<(w&63)) != 0
	}
	p := walkIndex{off: make([]int32, n+1), walk: make([]int32, total), pos: make([]int32, total)}
	dst, f := int32(0), 0
	// keep copies prev's postings of nodes [a, b).
	keep := func(a, b int32) {
		if prev.off == nil {
			for u := a; u < b; u++ {
				p.off[u+1] = dst
			}
			return
		}
		lo, hi := prev.off[a], prev.off[b]
		copy(p.walk[dst:], prev.walk[lo:hi])
		copy(p.pos[dst:], prev.pos[lo:hi])
		for u := a; u < b; u++ {
			p.off[u+1] = prev.off[u+1] - lo + dst
		}
		dst += hi - lo
	}
	next := int32(0) // the first node not placed yet
	for _, u := range touched {
		keep(next, u)
		var a, ap []int32
		if prev.off != nil {
			a, ap = prev.walk[prev.off[u]:prev.off[u+1]], prev.pos[prev.off[u]:prev.off[u+1]]
		}
		for {
			for len(stale) > 0 && len(a) > 0 && isStale(a[0]) {
				a, ap = a[1:], ap[1:]
			}
			more := f < len(fresh) && fresh[f].u == u
			if len(a) == 0 && !more {
				break
			}
			if !more || (len(a) > 0 && a[0] < fresh[f].w) {
				p.walk[dst], p.pos[dst] = a[0], ap[0]
				a, ap = a[1:], ap[1:]
			} else {
				p.walk[dst], p.pos[dst] = fresh[f].w, fresh[f].rel
				f++
			}
			dst++
		}
		p.off[u+1] = dst
		next = u + 1
	}
	keep(next, int32(n))
	return p
}

// flatten returns the set's walks as flat arrays in walk-id order: the base's
// own when there is no overlay, fresh heap arrays otherwise.
func (set *Set) flatten() (nodes, off []int32) {
	ov := set.ov
	if ov == nil {
		return set.nodes, set.off
	}
	size := len(set.nodes)
	for _, o := range ov.owners {
		size += len(o.nodes) - int(set.off[o.first+int32(len(o.off)-1)]-set.off[o.first])
	}
	nodes = make([]int32, 0, size)
	off = make([]int32, 1, len(set.off))
	for i := range set.ownerNodes {
		block, bo := set.ownerWalks(i)
		shift := int32(len(nodes)) - bo[0]
		nodes = append(nodes, block[bo[0]:bo[len(bo)-1]]...)
		for _, x := range bo[1:] {
			off = append(off, x+shift)
		}
	}
	return nodes, off
}

// foldIndex returns the set's postings as one index: the base's own when
// there is no overlay, else a fresh raw index equal to EnsureIndex over
// flatten's arrays.
func (set *Set) foldIndex() *walkIndex {
	ov := set.ov
	if ov == nil {
		return set.idx
	}
	entries, _ := set.indexCost()
	for _, o := range ov.owners {
		for w := o.first; w < o.first+int32(len(o.off)-1); w++ {
			eachFirst(set.nodes[set.off[w]:set.off[w+1]], func(int32, int32) { entries-- })
		}
	}
	idx := &walkIndex{off: make([]int32, set.n+1), walk: make([]int32, 0, entries), pos: make([]int32, 0, entries)}
	for u := range set.n {
		it := set.postings(int32(u))
		for ws, rels := it.block(); len(ws) > 0; ws, rels = it.block() {
			idx.walk, idx.pos = append(idx.walk, ws...), append(idx.pos, rels...)
		}
		idx.off[u+1] = int32(len(idx.walk))
	}
	return idx
}

// fold makes base + overlay the set's new base, on the heap with a raw
// postings index and no overlay, and returns the bytes written.
func (set *Set) fold() int64 {
	nodes, off := set.flatten()
	idx := set.foldIndex()
	set.nodes, set.off, set.idx, set.ov = nodes, off, idx, nil
	written := 4*int64(len(nodes)+len(off)) + idx.bytes()
	if set.region != nil {
		set.ownerNodes, set.ownerOff = slices.Clone(set.ownerNodes), slices.Clone(set.ownerOff)
		set.region = nil
		written += 4 * int64(len(set.ownerNodes)+len(set.ownerOff))
	}
	return written
}
