package walks

import (
	"context"
	"fmt"
	"slices"

	"ovm/internal/engine"
	"ovm/internal/obs"
)

// RepairStats reports how much of a walk set an incremental repair had to
// regenerate, and what it wrote to do so.
type RepairStats struct {
	// Owners / Walks are the set's totals.
	Owners, Walks int
	// OwnersInvalidated / WalksInvalidated count the regenerated portion.
	OwnersInvalidated, WalksInvalidated int
	// CopyBytes counts every byte the repair wrote: the new overlay's walks,
	// postings, owner table and bitmap, and a fold's fresh base.
	CopyBytes int64
	// Folded reports that the overlay outgrew its share and was folded into
	// a fresh base.
	Folded bool
}

// Repair incrementally rebuilds old, a pristine walk set drawn with d, after
// a graph mutation, producing the set drawing d afresh on the mutated graph
// would produce — walk for walk and posting for posting — while only
// regenerating the owners whose walks could have diverged.
//
// touched marks the mutated nodes: every node whose in-neighborhood
// (sources or weights) or stubbornness changed. An owner is invalidated
// when any node of any of its stored walks is touched; the touched nodes'
// postings name exactly those walks, so finding them costs the touched
// nodes' postings, not a scan of the set. Invalid owners' walks are
// regenerated on the mutated graph from the owner's original substream
// Sub(walkStream).At(owner) of d's family — the same stream a from-scratch
// generation consumes, and since the set travels with its Draw it cannot be
// another. Walks of untouched owners replay the identical random draws on
// the mutated graph (every node they visit kept its stubbornness and in-edge
// distribution bit-identical), so keeping them equals regenerating them.
//
// Nothing of old is copied or written: the result shares old's base and
// carries a new overlay (old's, with the regenerated owners in place of
// theirs), folded into a fresh base once it outgrows 1/foldShare of the
// walks. When no owner is invalid the result is old itself. old gains a
// postings index if it had none.
//
// gr must describe the MUTATED graph. The owner grouping (and for sampled
// starts, the start multiset) depends only on (d, n), so it is preserved
// as-is. ctx cancels at shard boundaries (nil never cancels): the async
// update pipeline's applier threads its run context through here so a
// shutdown can abandon an in-flight background repair instead of waiting it
// out.
func (d Draw) Repair(ctx context.Context, gr *Ground, old *Set, touched []bool, parallelism int) (*Set, RepairStats, error) {
	return d.repair(ctx, gr, old, touched, parallelism, true)
}

// RepairOverlay is Repair for a set whose fold is a checkpoint: it never
// folds, however far the overlay outgrows its share. Its owner writes the
// set to an index file once OverlayFull reports true and serves the file it
// wrote as the next base (see Storage in the package doc).
func (d Draw) RepairOverlay(ctx context.Context, gr *Ground, old *Set, touched []bool, parallelism int) (*Set, RepairStats, error) {
	return d.repair(ctx, gr, old, touched, parallelism, false)
}

func (d Draw) repair(ctx context.Context, gr *Ground, old *Set, touched []bool, parallelism int, fold bool) (*Set, RepairStats, error) {
	var stats RepairStats
	n := gr.s.Graph().N()
	if len(old.seeds) > 0 {
		return nil, stats, fmt.Errorf("walks: cannot repair a set with %d seeds applied", len(old.seeds))
	}
	if old.n != n {
		return nil, stats, fmt.Errorf("walks: repair graph has %d nodes, set was generated over %d", n, old.n)
	}
	if len(gr.stub) != n {
		return nil, stats, fmt.Errorf("walks: stub has %d entries, want %d", len(gr.stub), n)
	}
	if len(touched) != n {
		return nil, stats, fmt.Errorf("walks: touched mask has %d entries, want %d", len(touched), n)
	}
	stats.Owners = old.NumOwners()
	stats.Walks = old.NumWalks()

	old.EnsureIndex(parallelism)
	invalid := old.invalidOwners(touched)
	for _, i := range invalid {
		stats.OwnersInvalidated++
		stats.WalksInvalidated += old.OwnerWalkCount(int(i))
	}
	if obs.CostEnabled() {
		repairWalksSeen.Add(int64(stats.Walks))
		repairWalksInvalid.Add(int64(stats.WalksInvalidated))
		repairOwnersRegen.Add(int64(stats.OwnersInvalidated))
	}
	if len(invalid) == 0 {
		return old, stats, nil
	}

	regen, err := d.regenerate(ctx, gr, old, invalid, parallelism)
	if err != nil {
		return nil, stats, err
	}
	set := *old
	set.end, set.inSeed = nil, nil // old may be an unseeded Clone; the result is pristine
	set.ov, stats.CopyBytes = old.nextOverlay(regen)
	if fold && set.OverlayFull() {
		stats.CopyBytes += set.fold()
		stats.Folded = true
	}
	if obs.CostEnabled() {
		repairCopyBytes.Add(stats.CopyBytes)
		if stats.Folded {
			repairFolds.Add(1)
		}
	}
	return &set, stats, nil
}

// invalidOwners returns, ascending, the owners one of whose walks lists a
// touched node, read off the touched nodes' postings.
func (set *Set) invalidOwners(touched []bool) []int32 {
	var invalid []int32
	for u, hit := range touched {
		if !hit {
			continue
		}
		it := set.postings(int32(u))
		last := -1
		for ws, _ := it.block(); len(ws) > 0; ws, _ = it.block() {
			for _, w := range ws {
				if last >= 0 && w < set.ownerOff[last+1] {
					continue // postings ascend, so this is the last walk's owner
				}
				last = set.ownerOf(w)
				invalid = append(invalid, int32(last))
			}
		}
	}
	slices.Sort(invalid)
	return slices.Compact(invalid)
}

// regenerate draws the invalid owners' walks afresh on gr, sharded like
// generateGrouped, and lays them out as overlay entries over one block of
// nodes and one of walk offsets.
func (d Draw) regenerate(ctx context.Context, gr *Ground, old *Set, invalid []int32, parallelism int) ([]ovOwner, error) {
	walkStr := d.stream().Sub(walkStream)
	numShards := engine.NumShards(len(invalid), 64, 256)
	shards, err := engine.MapCtx(ctx, parallelism, numShards, func(_, sh int) (walkShard, error) {
		lo, hi := engine.ShardRange(len(invalid), numShards, sh)
		var out walkShard
		for _, i := range invalid[lo:hi] {
			v := old.ownerNodes[i]
			out = appendOwnerWalks(gr.s, gr.stub, old.horizon, v, old.ownerOff[i+1]-old.ownerOff[i], walkStr.At(uint64(v)), out)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var elems, walks int
	for _, sh := range shards {
		elems += len(sh.nodes)
		walks += len(sh.lens)
	}
	nodes := make([]int32, 0, elems)
	off := make([]int32, 0, walks+len(invalid))
	lens := make([]int32, 0, walks)
	for _, sh := range shards {
		nodes = append(nodes, sh.nodes...)
		lens = append(lens, sh.lens...)
	}
	regen := make([]ovOwner, len(invalid))
	pos := int32(0)
	for j, i := range invalid {
		first, last := old.ownerOff[i], old.ownerOff[i+1]
		lo, start := len(off), pos
		off = append(off, 0)
		for _, l := range lens[:last-first] {
			pos += l
			off = append(off, pos-start)
		}
		lens = lens[last-first:]
		regen[j] = ovOwner{first: first, off: off[lo:len(off):len(off)], nodes: nodes[start:pos:pos]}
	}
	return regen, nil
}
