package service

import (
	"context"

	"ovm/internal/opinion"
	"ovm/internal/walks"
)

// SetComputeContext installs the test-only hook that wraps every detached
// compute context, letting robustness tests cancel a computation at a
// precise point mid-greedy (or block it to hold an admission slot) without
// racing the request path. Production code never sets it.
func (c *Config) SetComputeContext(hook func(context.Context) context.Context) {
	c.computeContext = hook
}

// EpochMemoBytes is the per-Dataset memo budget.
const EpochMemoBytes = epochMemoBytes

// PrefixValueOverhead is what one remembered exact value weighs besides its key.
const PrefixValueOverhead = prefixValueOverhead

// WalkSets returns the current epoch's walk sets, in artifact order.
func (s *Service) WalkSets(dataset string) []*walks.Set {
	ds, serr := s.dataset(dataset)
	if serr != nil {
		return nil
	}
	defer ds.release()
	var sets []*walks.Set
	for _, a := range ds.walks {
		sets = append(sets, a.set)
	}
	return sets
}

// EpochMemoResident reports how many bytes the values of the dataset's
// current epoch weigh.
func (s *Service) EpochMemoResident(dataset string) int64 {
	ds, serr := s.dataset(dataset)
	if serr != nil {
		return -1
	}
	defer ds.release()
	return ds.memo.Cost()
}

// EpochRows is one (target, horizon) value of an epoch's memo: the
// competitors' rows at the horizon and the target's trajectory to it.
type EpochRows struct {
	Target, Horizon int
	Comp, Traj      [][]float64
}

// EpochMemoRows returns the current epoch's system and the (target,
// horizon) values its memo holds, least recently used first.
func (s *Service) EpochMemoRows(dataset string) (*opinion.System, []EpochRows) {
	ds, serr := s.dataset(dataset)
	if serr != nil {
		return nil, nil
	}
	defer ds.release()
	var out []EpochRows
	for _, e := range ds.memo.entries() {
		if h, ok := e.val.(*horizonRows); ok {
			out = append(out, EpochRows{Target: h.target, Horizon: h.horizon, Comp: h.comp, Traj: h.traj})
		}
	}
	return ds.sys, out
}
