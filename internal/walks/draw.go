package walks

import (
	"context"
	"fmt"

	"ovm/internal/core"
	"ovm/internal/graph"
	"ovm/internal/obs"
	"ovm/internal/opinion"
	"ovm/internal/sampling"
)

// The substream families of the walk methods (see the table in the package
// doc). A set's bytes are a function of (family, seed, starts, graph), so a
// family id is part of every index file on disk: moving one makes a loaded
// artifact disagree with live regeneration.
const (
	FamilyRW      uint64 = 101 // Algorithm 4's walk set
	FamilyRWPilot uint64 = 103 // the γ* pilot walks of §V-C
	FamilyRS      uint64 = 211 // Algorithm 5's sketch set
	FamilyRSOpt   uint64 = 223 // + ⌊x⌋: EstimateOPT's test set at threshold x
)

// Draw says how a walk set is drawn, which is all that separates RS from RW
// (§VI-A, footnote 6): the substream family and seed its owners draw from,
// and where its walks start. Theta > 0 samples θ start nodes uniformly with
// replacement (λ_v = 1 per sample); otherwise the starts are planned per
// node, Lambda walks from every node or an explicit plan (GeneratePlan).
// Generation, repair and the owner weights of the greedy follow from it, so
// a set and its Draw travel together and every layer above handles the pair
// once. Draw is comparable: two sets over one graph and horizon are the same
// set exactly when their Draws are equal.
type Draw struct {
	Family uint64
	Seed   int64
	Theta  int
	Lambda int
}

func (d Draw) stream() sampling.Stream { return sampling.Stream{Seed: d.Seed, ID: d.Family} }

// Ground is what walks run over: one candidate's reverse influence graph
// behind an alias sampler, and its stubbornness (the per-node termination
// probability d_v). The sampler costs O(m) to build and is shared by every
// generation and repair over its graph. An update derives the next Ground
// with Next, which rebuilds only the rows of the columns it changed.
type Ground struct {
	s    *graph.InEdgeSampler
	stub []float64
}

// NewGround prepares c for walk generation, building every row of its
// sampler.
func NewGround(c *opinion.Candidate) (*Ground, error) {
	s, err := graph.NewInEdgeSampler(c.G)
	if err != nil {
		return nil, err
	}
	if obs.CostEnabled() {
		samplerRows.Add(int64(c.G.N()))
	}
	return &Ground{s: s, stub: c.Stub}, nil
}

// Next returns the Ground of c, a candidate the same as gr's but for its
// stubbornness and the in-edges of the columns changed names (the sorted
// list graph.ApplyDeltas returns with c.G). Over gr's own graph it shares
// gr's sampler; over another it derives one with InEdgeSampler.Next,
// building changed's rows only. A nil changed rebuilds none: c.G must then
// hold gr's graph in other storage. It equals NewGround(c) bit for bit.
func (gr *Ground) Next(c *opinion.Candidate, changed []int32) (*Ground, error) {
	s := gr.s
	if c.G != s.Graph() {
		var err error
		if s, err = s.Next(c.G, changed); err != nil {
			return nil, err
		}
		if obs.CostEnabled() {
			samplerRows.Add(int64(len(changed)))
		}
	}
	return &Ground{s: s, stub: c.Stub}, nil
}

func (gr *Ground) check(horizon int) error {
	if n := gr.s.Graph().N(); len(gr.stub) != n {
		return fmt.Errorf("walks: stub has %d entries, want %d", len(gr.stub), n)
	}
	if horizon < 0 {
		return fmt.Errorf("walks: negative horizon %d", horizon)
	}
	return nil
}

// Generate draws the pristine set of a Draw that names its starts: Theta
// sampled ones, or Lambda walks from every node. ctx cancels as in
// GeneratePlan.
func (d Draw) Generate(ctx context.Context, gr *Ground, horizon, parallelism int) (*Set, error) {
	if d.Theta > 0 {
		return d.generateSampled(ctx, gr, horizon, parallelism)
	}
	if d.Lambda < 1 {
		return nil, fmt.Errorf("walks: need theta > 0 or lambda > 0, got theta=%d lambda=%d", d.Theta, d.Lambda)
	}
	plan := make([]int32, gr.s.Graph().N())
	for v := range plan {
		plan[v] = int32(d.Lambda)
	}
	return d.GeneratePlan(ctx, gr, horizon, plan, parallelism)
}

// Weights returns the owner weights of the greedy over set: m_v·n/θ for
// sampled starts (Equation 35 / 42), 1 for planned ones.
func (d Draw) Weights(set *Set) []float64 {
	if d.Theta > 0 {
		return SketchOwnerWeights(set, d.Theta)
	}
	return UniformOwnerWeights(set)
}

// Greedy is ContinueGreedy over a set drawn with d, under d's owner weights:
// Algorithm 4 for planned starts, Algorithm 5 for sampled ones.
func (d Draw) Greedy(p *core.Problem, set *Set, comp [][]float64, prefix []int32, parallelism int) (*GreedyRun, error) {
	return ContinueGreedy(p, set, d.Weights(set), comp, prefix, parallelism)
}

// Generate, GenerateSampled and Repair spell a Draw as the stream it draws
// from, over a sampler and stubbornness vector the caller already holds, and
// never cancel. Tests and ablations that pick their own family use them.

// Generate is Draw.GeneratePlan for the family and seed of str.
func Generate(s *graph.InEdgeSampler, stub []float64, horizon int, plan []int32, str sampling.Stream, parallelism int) (*Set, error) {
	return Draw{Family: str.ID, Seed: str.Seed}.GeneratePlan(nil, &Ground{s, stub}, horizon, plan, parallelism)
}

// GenerateSampled is Draw.Generate for theta sampled starts.
func GenerateSampled(s *graph.InEdgeSampler, stub []float64, horizon, theta int, str sampling.Stream, parallelism int) (*Set, error) {
	return Draw{Family: str.ID, Seed: str.Seed, Theta: theta}.Generate(nil, &Ground{s, stub}, horizon, parallelism)
}

// Repair is Draw.Repair; str must be the stream old was generated with.
func Repair(old *Set, s *graph.InEdgeSampler, stub []float64, touched []bool, str sampling.Stream, parallelism int) (*Set, RepairStats, error) {
	return Draw{Family: str.ID, Seed: str.Seed}.Repair(nil, &Ground{s, stub}, old, touched, parallelism)
}
