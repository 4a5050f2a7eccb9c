package graph

import (
	"fmt"
	"math"
)

// Sanity caps on declared sizes, so a corrupted index fails with an error
// instead of being served.
const (
	maxBinaryNodes = 1 << 28
	maxBinaryEdges = 1 << 31
)

// CSRArrays is the exact storage of a Graph, exposed so the v3 index
// format (internal/serialize) can write the arrays verbatim and alias
// them back over a read-only mapped region. The slices belong to the
// Graph (or, for a mapped graph, to the mapping) — treat them as
// immutable.
type CSRArrays struct {
	N                int
	ColumnStochastic bool
	InStart, InSrc   []int32
	InW              []float64
	OutStart, OutDst []int32
	OutW             []float64
}

// Arrays returns g's raw CSR storage.
func (g *Graph) Arrays() CSRArrays {
	return CSRArrays{
		N:                g.n,
		ColumnStochastic: g.columnStochastic,
		InStart:          g.inStart,
		InSrc:            g.inSrc,
		InW:              g.inW,
		OutStart:         g.outStart,
		OutDst:           g.outDst,
		OutW:             g.outW,
	}
}

// NewFromCSR adopts pre-built CSR arrays without copying, after validating
// every structural invariant (offset monotonicity, id ranges, finite
// non-negative weights, matching in/out edge counts).
// The arrays may alias read-only storage: a Graph never mutates them.
func NewFromCSR(a CSRArrays) (*Graph, error) {
	n := a.N
	if n <= 0 || n > maxBinaryNodes {
		return nil, fmt.Errorf("graph: node count %d outside (0,%d]", n, maxBinaryNodes)
	}
	m := len(a.InSrc)
	if m > maxBinaryEdges {
		return nil, fmt.Errorf("graph: edge count %d exceeds limit", m)
	}
	if len(a.InStart) != n+1 || len(a.OutStart) != n+1 {
		return nil, fmt.Errorf("graph: offset arrays must have length n+1")
	}
	if len(a.InW) != m || len(a.OutDst) != m || len(a.OutW) != m {
		return nil, fmt.Errorf("graph: in/out arrays disagree on edge count")
	}
	if err := validateCSR(a.InStart, a.InSrc, n, m, "in"); err != nil {
		return nil, err
	}
	if err := validateCSR(a.OutStart, a.OutDst, n, m, "out"); err != nil {
		return nil, err
	}
	for i, w := range a.InW {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("graph: in-weight %d is %v", i, w)
		}
	}
	for i, w := range a.OutW {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("graph: out-weight %d is %v", i, w)
		}
	}
	return &Graph{
		n:                n,
		columnStochastic: a.ColumnStochastic,
		inStart:          a.InStart,
		inSrc:            a.InSrc,
		inW:              a.InW,
		outStart:         a.OutStart,
		outDst:           a.OutDst,
		outW:             a.OutW,
	}, nil
}

func validateCSR(start, ids []int32, n, m int, side string) error {
	if start[0] != 0 || int(start[n]) != m {
		return fmt.Errorf("graph: %s-offsets must span [0,%d], got [%d,%d]", side, m, start[0], start[n])
	}
	for v := 0; v < n; v++ {
		if start[v+1] < start[v] {
			return fmt.Errorf("graph: %s-offsets not monotone at node %d", side, v)
		}
	}
	for i, id := range ids {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("graph: %s-edge %d references node %d, want [0,%d)", side, i, id, n)
		}
	}
	return nil
}
