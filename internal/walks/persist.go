package walks

import (
	"fmt"
	"slices"

	"ovm/internal/graph"
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
