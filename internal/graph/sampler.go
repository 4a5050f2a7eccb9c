package graph

import (
	"fmt"

	"ovm/internal/sampling"
)

// InEdgeSampler draws a random in-neighbor of a node proportionally to the
// in-edge weights, in O(1) per draw, via per-node Walker alias tables laid
// out flat over the in-CSR arrays. It powers the reverse random walks of
// §V and the sketches of §VI: in the reverse graph, the (column-stochastic)
// in-weights of v are exactly the transition probabilities out of v.
type InEdgeSampler struct {
	g     *Graph
	prob  []float64 // aligned with g.inSrc
	alias []int32   // absolute positions into g.inSrc
}

// NewInEdgeSampler builds the sampler. The graph must be column-stochastic
// (every node needs positive total in-weight; normalization guarantees it).
func NewInEdgeSampler(g *Graph) (*InEdgeSampler, error) {
	s, err := newSampler(g)
	if err != nil {
		return nil, err
	}
	var w vose
	for v := int32(0); v < int32(g.n); v++ {
		if err := s.build(v, &w); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Next returns the sampler of ng, a graph g.ApplyDeltas derived from s's
// graph g together with changed, the sorted nodes it reports changed. The
// rows of every other node are s's, copied with their alias positions
// shifted by the row's new offset; only changed's rows are built afresh.
// The result equals NewInEdgeSampler(ng) bit for bit. A nil changed copies
// every row: ng must then hold g's in-CSR in other storage.
func (s *InEdgeSampler) Next(ng *Graph, changed []int32) (*InEdgeSampler, error) {
	g := s.g
	if ng.n != g.n {
		return nil, fmt.Errorf("graph: next sampler over %d nodes, was %d", ng.n, g.n)
	}
	ns, err := newSampler(ng)
	if err != nil {
		return nil, err
	}
	var w vose
	next := int32(0) // the first node whose row is not placed yet
	for _, v := range changed {
		if v < next || v >= int32(g.n) {
			return nil, fmt.Errorf("graph: changed nodes must ascend within [0,%d), got %d after %d", g.n, v, next-1)
		}
		if err := ns.copyRows(s, next, v); err != nil {
			return nil, err
		}
		if err := ns.build(v, &w); err != nil {
			return nil, err
		}
		next = v + 1
	}
	if err := ns.copyRows(s, next, int32(g.n)); err != nil {
		return nil, err
	}
	return ns, nil
}

// newSampler allocates the (unbuilt) sampler of a column-stochastic g.
func newSampler(g *Graph) (*InEdgeSampler, error) {
	if !g.IsColumnStochastic() {
		if v := g.CheckColumnStochastic(1e-9); v >= 0 {
			return nil, fmt.Errorf("graph: in-weights of node %d do not sum to 1; normalize first", v)
		}
	}
	return &InEdgeSampler{
		g:     g,
		prob:  make([]float64, g.M()),
		alias: make([]int32, g.M()),
	}, nil
}

// vose holds the work lists of Vose's construction, reused row to row.
type vose struct{ small, large []int32 }

// build runs Vose's construction over node v's in-edge slice.
func (s *InEdgeSampler) build(v int32, w *vose) error {
	g := s.g
	lo, hi := g.inStart[v], g.inStart[v+1]
	deg := int(hi - lo)
	if deg == 0 {
		return fmt.Errorf("graph: node %d has no in-edges; normalize first", v)
	}
	sum := 0.0
	for i := lo; i < hi; i++ {
		sum += g.inW[i]
	}
	if sum <= 0 {
		return fmt.Errorf("graph: node %d has zero in-weight; normalize first", v)
	}
	small, large := w.small[:0], w.large[:0]
	for i := lo; i < hi; i++ {
		s.prob[i] = g.inW[i] / sum * float64(deg)
		if s.prob[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		sm := small[len(small)-1]
		small = small[:len(small)-1]
		lg := large[len(large)-1]
		large = large[:len(large)-1]
		s.alias[sm] = lg
		s.prob[lg] += s.prob[sm] - 1
		if s.prob[lg] < 1 {
			small = append(small, lg)
		} else {
			large = append(large, lg)
		}
	}
	for _, i := range large {
		s.prob[i] = 1
		s.alias[i] = i
	}
	for _, i := range small {
		s.prob[i] = 1
		s.alias[i] = i
	}
	w.small, w.large = small, large
	return nil
}

// copyRows copies from's rows of nodes [a, b), whose in-edges s's graph
// and s.g hold at offsets that differ by one shift.
func (s *InEdgeSampler) copyRows(from *InEdgeSampler, a, b int32) error {
	lo, hi := from.g.inStart[a], from.g.inStart[b]
	nlo, nhi := s.g.inStart[a], s.g.inStart[b]
	if hi-lo != nhi-nlo {
		return fmt.Errorf("graph: unchanged nodes [%d,%d) hold %d in-edges, were %d", a, b, nhi-nlo, hi-lo)
	}
	copy(s.prob[nlo:nhi], from.prob[lo:hi])
	if shift := nlo - lo; shift == 0 {
		copy(s.alias[nlo:nhi], from.alias[lo:hi])
	} else {
		for i, x := range from.alias[lo:hi] {
			s.alias[nlo+int32(i)] = x + shift
		}
	}
	return nil
}

// Sample returns a random in-neighbor of v drawn with probability equal to
// the corresponding in-edge weight (given column-stochastic weights). Any
// sampling.Source works; parallel walk generation passes per-item SplitMix
// substreams, serial callers typically pass a *rand.Rand.
func (s *InEdgeSampler) Sample(v int32, r sampling.Source) int32 {
	lo := s.g.inStart[v]
	deg := s.g.inStart[v+1] - lo
	i := lo + int32(r.Intn(int(deg)))
	if r.Float64() < s.prob[i] {
		return s.g.inSrc[i]
	}
	return s.g.inSrc[s.alias[i]]
}

// Graph returns the underlying graph.
func (s *InEdgeSampler) Graph() *Graph { return s.g }
