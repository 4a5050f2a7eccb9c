package core

import (
	"context"
	"fmt"
	"slices"

	"ovm/internal/engine"
	"ovm/internal/graph"
	"ovm/internal/voting"
)

// FavorableSet computes V_q^(t) (Definition 1): the users who rank the
// target within the top p positions at the horizon without any target
// seeds. B must be the seedless horizon opinion matrix.
func FavorableSet(B [][]float64, q, p int) []bool {
	n := len(B[q])
	out := make([]bool, n)
	for v := 0; v < n; v++ {
		if voting.Rank(B, q, v) <= p {
			out[v] = true
		}
	}
	return out
}

// WeaklyFavorableSet computes U_q^(t) (Definition 5): the users who prefer
// the target to at least one other candidate at the horizon without seeds.
func WeaklyFavorableSet(B [][]float64, q int) []bool {
	n := len(B[q])
	out := make([]bool, n)
	for v := 0; v < n; v++ {
		minOther := 2.0
		for x := range B {
			if x == q {
				continue
			}
			if B[x][v] < minOther {
				minOther = B[x][v]
			}
		}
		if B[q][v] > minOther {
			out[v] = true
		}
	}
	return out
}

// CoverageValue returns scale·|N_S^(t) ∪ base|: the generic form of the
// sandwich upper bounds (Definitions 4 and 6). base is a membership mask;
// N_S^(t) is the t-hop out-reachability of the seed set (Definition 2).
func CoverageValue(g *graph.Graph, horizon int, base []bool, scale float64, seeds []int32) float64 {
	covered := make([]bool, len(base))
	copy(covered, base)
	cnt := 0
	for _, in := range base {
		if in {
			cnt++
		}
	}
	bfs := graph.NewBFS(g)
	cnt += bfs.MarkReachable(seeds, horizon, covered)
	return scale * float64(cnt)
}

// coverage is the objective |N_S^(t) ∪ base| of the sandwich upper bounds
// (Definitions 4 and 6), unscaled: its gains are reach counts, so the greedy
// picks by reach even where the bound's scale is 0. Gains runs one BFS state
// per worker; covered is only written by Add, between sweeps.
type coverage struct {
	horizon, parallelism int
	covered              []bool
	bfs                  []*graph.BFS
	total, evals         int
}

func newCoverage(g *graph.Graph, horizon int, base []bool, parallelism int) *coverage {
	c := &coverage{
		horizon:     horizon,
		parallelism: parallelism,
		covered:     slices.Clone(base),
		bfs:         make([]*graph.BFS, engine.Workers(parallelism)),
	}
	for i := range c.bfs {
		c.bfs[i] = graph.NewBFS(g)
	}
	for _, in := range base {
		if in {
			c.total++
		}
	}
	return c
}

func (c *coverage) N() int { return len(c.covered) }

func (c *coverage) Gains(ctx context.Context, cands []int32, out []float64) error {
	c.evals += len(cands)
	return sweep(ctx, c.parallelism, len(cands), 64, 1024, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float64(c.bfs[worker].CountNewlyReachable(cands[i:i+1], c.horizon, c.covered))
		}
	})
}

func (c *coverage) Add(v int32, _ float64) {
	c.total += c.bfs[0].MarkReachable([]int32{v}, c.horizon, c.covered)
}

func (c *coverage) Value() float64 { return float64(c.total) }

func (c *coverage) Evaluations() int { return c.evals }

// GreedyCoverage maximizes scale·|N_S^(t) ∪ base| over size-k seed sets with
// GreedyCELF (the function is monotone submodular, Theorems 6/7, so the
// laziness is exact). Evaluations counts BFS probes. The greedy runs on
// unscaled reach counts; scale is applied to the gains and the value after.
func GreedyCoverage(g *graph.Graph, horizon int, base []bool, scale float64, k, parallelism int) (*GreedyResult, error) {
	return greedyCoverage(nil, g, horizon, base, scale, k, parallelism)
}

// greedyCoverage is GreedyCoverage with ctx polled as GreedyCELF polls it.
func greedyCoverage(ctx context.Context, g *graph.Graph, horizon int, base []bool, scale float64, k, parallelism int) (*GreedyResult, error) {
	if len(base) != g.N() {
		return nil, fmt.Errorf("core: base mask has %d entries, want %d", len(base), g.N())
	}
	res, err := GreedyCELF(ctx, newCoverage(g, horizon, base, parallelism), k)
	if err != nil {
		return nil, err
	}
	for i := range res.Gains {
		res.Gains[i] *= scale
	}
	res.Value *= scale
	return res, nil
}

var (
	_ Objective = (*coverage)(nil)
	_ Objective = (*DMObjective)(nil)
)

// PositionalBounds packages the LB/UB surrogate parameters for the
// positional-p-approval family (§IV-B). For plurality use
// voting.PluralityAsPositional(); for p-approval, voting.PApprovalAsPositional.
type PositionalBounds struct {
	Favorable []bool  // V_q^(t)
	OmegaP    float64 // ω[p], scales LB
	Omega1    float64 // ω[1], scales UB
}

// NewPositionalBounds computes the bound ingredients from the seedless
// horizon matrix.
func NewPositionalBounds(B [][]float64, q int, s voting.Positional) (*PositionalBounds, error) {
	if err := s.Validate(len(B)); err != nil {
		return nil, err
	}
	return &PositionalBounds{
		Favorable: FavorableSet(B, q, s.P),
		OmegaP:    s.Omega[s.P-1],
		Omega1:    s.Omega[0],
	}, nil
}
