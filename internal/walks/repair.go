package walks

import (
	"context"
	"fmt"

	"ovm/internal/engine"
	"ovm/internal/obs"
)

// RepairStats reports how much of a walk set an incremental repair had to
// regenerate.
type RepairStats struct {
	// Owners / Walks are the set's totals.
	Owners, Walks int
	// OwnersInvalidated / WalksInvalidated count the regenerated portion.
	OwnersInvalidated, WalksInvalidated int
}

// Repair incrementally rebuilds old, a pristine walk set drawn with d, after
// a graph mutation, producing the set drawing d afresh on the mutated graph
// would produce — byte-identical — while only regenerating the owners whose
// walks could have diverged.
//
// touched marks the mutated nodes: every node whose in-neighborhood
// (sources or weights) or stubbornness changed. An owner is invalidated
// when any node of any of its stored walks is touched; its walks are then
// regenerated on the mutated graph from the owner's original substream
// Sub(walkStream).At(owner) of d's family — the same stream a from-scratch
// generation consumes, and since the set travels with its Draw it cannot be
// another. Walks of untouched owners replay the identical random draws on
// the mutated graph (every node they visit kept its stubbornness and in-edge
// distribution bit-identical), so copying them verbatim equals regenerating
// them.
//
// gr must describe the MUTATED graph. The owner grouping (and for sampled
// starts, the start multiset) depends only on (d, n), so it is preserved
// as-is. ctx cancels at shard boundaries (nil never cancels): the async
// update pipeline's applier threads its run context through here so a
// shutdown can abandon an in-flight background repair instead of waiting it
// out.
func (d Draw) Repair(ctx context.Context, gr *Ground, old *Set, touched []bool, parallelism int) (*Set, RepairStats, error) {
	s, stub, str := gr.s, gr.stub, d.stream()
	var stats RepairStats
	g := s.Graph()
	n := g.N()
	if len(old.seeds) > 0 {
		return nil, stats, fmt.Errorf("walks: cannot repair a set with %d seeds applied", len(old.seeds))
	}
	if old.g.N() != n {
		return nil, stats, fmt.Errorf("walks: repair graph has %d nodes, set was generated over %d", n, old.g.N())
	}
	if len(stub) != n {
		return nil, stats, fmt.Errorf("walks: stub has %d entries, want %d", len(stub), n)
	}
	if len(touched) != n {
		return nil, stats, fmt.Errorf("walks: touched mask has %d entries, want %d", len(touched), n)
	}
	owners := old.ownerNodes
	horizon := old.horizon
	stats.Owners = len(owners)
	stats.Walks = old.NumWalks()

	// Phase 1: invalidation scan — an owner is dirty iff any stored walk of
	// its group visits a touched node.
	invalid := make([]bool, len(owners))
	scanErr := engine.ForEachChunkCtx(ctx, parallelism, len(owners), 64, 256, func(_, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			first, last := old.ownerOff[i], old.ownerOff[i+1]
			for p := old.off[first]; p < old.off[last] && !invalid[i]; p++ {
				if touched[old.nodes[p]] {
					invalid[i] = true
				}
			}
		}
		return nil
	})
	if scanErr != nil {
		return nil, stats, scanErr
	}
	for i := range invalid {
		if invalid[i] {
			stats.OwnersInvalidated++
			stats.WalksInvalidated += int(old.ownerOff[i+1] - old.ownerOff[i])
		}
	}
	if obs.CostEnabled() {
		repairWalksSeen.Add(int64(stats.Walks))
		repairWalksInvalid.Add(int64(stats.WalksInvalidated))
		repairOwnersRegen.Add(int64(stats.OwnersInvalidated))
	}

	// Phase 2: selective regeneration, sharded exactly like generateGrouped
	// so the flat layout matches a full rebuild.
	set := &Set{
		g:          g,
		horizon:    horizon,
		ownerNodes: owners,
		ownerOff:   old.ownerOff,
		off:        make([]int32, 1, old.NumWalks()+1),
		end:        make([]int32, 0, old.NumWalks()),
		inSeed:     make([]bool, n),
	}
	walkStr := str.Sub(walkStream)
	numShards := engine.NumShards(len(owners), 64, 256)
	shards, err := engine.MapCtx(ctx, parallelism, numShards, func(_, sh int) (walkShard, error) {
		lo, hi := engine.ShardRange(len(owners), numShards, sh)
		var out walkShard
		out.lens = make([]int32, 0, int(old.ownerOff[hi]-old.ownerOff[lo]))
		for i := lo; i < hi; i++ {
			first, last := old.ownerOff[i], old.ownerOff[i+1]
			if invalid[i] {
				v := owners[i]
				out = appendOwnerWalks(s, stub, horizon, v, last-first, walkStr.At(uint64(v)), out)
				continue
			}
			out.nodes = append(out.nodes, old.nodes[old.off[first]:old.off[last]]...)
			for w := first; w < last; w++ {
				out.lens = append(out.lens, old.off[w+1]-old.off[w])
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, stats, err
	}
	set.foldShards(shards)
	// An indexed set stays indexed through repair: kept owners' postings
	// are copied verbatim (walk ids and walk-relative positions are stable)
	// and only the regenerated owners' postings are re-derived and spliced
	// in — identical to rebuilding the index from scratch, without the full
	// counting sort.
	if old.idx != nil {
		set.idx = repairIndex(old, set, invalid, parallelism)
	}
	return set, stats, nil
}
