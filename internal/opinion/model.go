package opinion

import (
	"fmt"
	"slices"

	"ovm/internal/graph"
)

// Candidate bundles the per-candidate diffusion inputs: the influence graph
// W_q (column-stochastic), the initial opinion vector B_q^(0), and the
// stubbornness diagonal D_q.
type Candidate struct {
	Name string
	G    *graph.Graph
	Init []float64 // b_q^(0), values in [0,1]
	Stub []float64 // d_q, values in [0,1]; 0 = DeGroot, 1 = fully stubborn
}

// Validate checks dimension and range invariants. NaN is outside [0,1].
func (c *Candidate) Validate() error { return c.validate(nil, nil) }

// validate is Validate for a candidate of a system, skipping what is
// checked already: the column sums of a graph in checked, and the graph,
// Init and Stub c shares with prev (nil for none).
func (c *Candidate) validate(prev *Candidate, checked []*graph.Graph) error {
	if prev == nil {
		prev = &Candidate{}
	}
	if c.G == nil {
		return fmt.Errorf("opinion: candidate %q has no graph", c.Name)
	}
	n := c.G.N()
	if len(c.Init) != n {
		return fmt.Errorf("opinion: candidate %q: len(Init)=%d, want %d", c.Name, len(c.Init), n)
	}
	if len(c.Stub) != n {
		return fmt.Errorf("opinion: candidate %q: len(Stub)=%d, want %d", c.Name, len(c.Stub), n)
	}
	if c.G != prev.G && !slices.Contains(checked, c.G) {
		if v := c.G.CheckColumnStochastic(1e-6); v >= 0 {
			return fmt.Errorf("opinion: candidate %q: influence weights of node %d do not sum to 1", c.Name, v)
		}
	}
	if !sameVector(c.Init, prev.Init) {
		for i, b := range c.Init {
			if !(b >= 0 && b <= 1) {
				return fmt.Errorf("opinion: candidate %q: Init[%d]=%v outside [0,1]", c.Name, i, b)
			}
		}
	}
	if !sameVector(c.Stub, prev.Stub) {
		for i, d := range c.Stub {
			if !(d >= 0 && d <= 1) {
				return fmt.Errorf("opinion: candidate %q: Stub[%d]=%v outside [0,1]", c.Name, i, d)
			}
		}
	}
	return nil
}

// sameVector reports whether a and b are one slice.
func sameVector(a, b []float64) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// System is a multi-candidate opinion world over a common node set.
// Candidate 0..r-1 diffuse concurrently and independently (§II-B).
type System struct {
	n     int
	cands []*Candidate
}

// NewSystem validates and assembles a system. At least two candidates are
// required (the problem is only defined for r > 1). A graph several
// candidates share is checked once.
func NewSystem(cands []*Candidate) (*System, error) { return newSystem(cands, nil) }

// Derive is NewSystem for cands that are s's candidates with some graphs,
// Init or Stub vectors replaced, as an update leaves them. What a candidate
// shares with s's is taken as s validated it, so only the replaced parts
// are checked.
func (s *System) Derive(cands []*Candidate) (*System, error) {
	if len(cands) != len(s.cands) {
		return nil, fmt.Errorf("opinion: derived system has %d candidates, want %d", len(cands), len(s.cands))
	}
	return newSystem(cands, s.cands)
}

// newSystem is NewSystem, validating each candidate against prev's
// candidate at its index when prev is set.
func newSystem(cands, prev []*Candidate) (*System, error) {
	if len(cands) < 2 {
		return nil, fmt.Errorf("opinion: need at least 2 candidates, got %d", len(cands))
	}
	n := cands[0].G.N()
	var checked []*graph.Graph
	for q, c := range cands {
		var p *Candidate
		if prev != nil {
			p = prev[q]
		}
		if err := c.validate(p, checked); err != nil {
			return nil, err
		}
		checked = append(checked, c.G)
		if c.G.N() != n {
			return nil, fmt.Errorf("opinion: candidate %q has %d nodes, want %d", c.Name, c.G.N(), n)
		}
	}
	return &System{n: n, cands: cands}, nil
}

// N returns the number of users.
func (s *System) N() int { return s.n }

// R returns the number of candidates.
func (s *System) R() int { return len(s.cands) }

// Candidate returns candidate q.
func (s *System) Candidate(q int) *Candidate { return s.cands[q] }

// Candidates returns the candidate slice (shared; do not mutate).
func (s *System) Candidates() []*Candidate { return s.cands }

// ApplySeeds returns copies of init and stub with every seed node set to
// initial opinion 1 and stubbornness 1 (the seeding semantics of §II-C).
func ApplySeeds(init, stub []float64, seeds []int32) (effInit, effStub []float64) {
	effInit = make([]float64, len(init))
	effStub = make([]float64, len(stub))
	copy(effInit, init)
	copy(effStub, stub)
	for _, s := range seeds {
		effInit[s] = 1
		effStub[s] = 1
	}
	return effInit, effStub
}
