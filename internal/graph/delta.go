package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// DeltaOp names one kind of edge mutation applied by ApplyDeltas.
type DeltaOp uint8

const (
	// DeltaAdd inserts the edge from → to with raw weight W, summing with
	// the edge's current weight when it already exists.
	DeltaAdd DeltaOp = iota
	// DeltaSet sets the edge's raw weight to W, inserting the edge when it
	// does not exist yet.
	DeltaSet
	// DeltaRemove deletes the edge; removing a missing edge is an error so
	// replayed update logs fail loudly instead of silently diverging.
	DeltaRemove
)

// Delta is one edge mutation. W is ignored by DeltaRemove.
type Delta struct {
	Op       DeltaOp
	From, To int32
	W        float64
}

// ApplyDeltas applies a batch of edge mutations to a column-stochastic
// graph and returns a new CSR graph plus the sorted set of changed nodes —
// the destinations whose in-neighborhoods (sources or weights) differ from
// g's. The receiver is not modified.
//
// Mutations are interpreted against the current (normalized) weights of the
// destination column: the column's weights act as the raw measure, the
// batch's ops are applied in order, and the column is renormalized to sum
// to 1: every weight is divided by the column's sum, taken in column order
// (the sources it keeps ascending, then those the batch inserts, in the
// order it inserts them). A column whose ops touch it is always
// renormalized (and therefore always reported as changed); a column left
// with no in-edges receives a weight-1 self-loop, mirroring
// ColumnStochastic. Untouched columns are copied verbatim, so their weights
// stay bit-identical — the property that lets sampled artifacts over
// unchanged regions survive an update without regeneration. The copy runs
// in pieces between the changed columns, and likewise for the out-rows of
// the sources they do not name: the work beyond the bulk copies is the
// changed columns and their sources' out-rows.
func (g *Graph) ApplyDeltas(deltas []Delta) (*Graph, []int32, error) {
	n := int32(g.n)
	if !g.columnStochastic {
		if v := g.CheckColumnStochastic(1e-6); v >= 0 {
			return nil, nil, fmt.Errorf("graph: delta-apply needs a column-stochastic graph; in-weights of node %d do not sum to 1", v)
		}
	}
	byCol := make(map[int32][]Delta)
	for i, d := range deltas {
		if d.From < 0 || d.From >= n || d.To < 0 || d.To >= n {
			return nil, nil, fmt.Errorf("graph: delta %d edge (%d,%d) out of range [0,%d)", i, d.From, d.To, n)
		}
		switch d.Op {
		case DeltaAdd, DeltaSet:
			if math.IsNaN(d.W) || math.IsInf(d.W, 0) || d.W <= 0 {
				return nil, nil, fmt.Errorf("graph: delta %d weight %v on edge (%d,%d) must be positive and finite", i, d.W, d.From, d.To)
			}
		case DeltaRemove:
		default:
			return nil, nil, fmt.Errorf("graph: delta %d has unknown op %d", i, d.Op)
		}
		byCol[d.To] = append(byCol[d.To], d)
	}
	changed := make([]int32, 0, len(byCol))
	for v := range byCol {
		changed = append(changed, v)
	}
	slices.Sort(changed)

	type inEdge struct {
		src int32
		w   float64
	}
	cols := make([][]inEdge, len(changed))
	for j, v := range changed {
		src, w := g.InNeighbors(v)
		col := make([]inEdge, len(src))
		for i := range src {
			col[i] = inEdge{src[i], w[i]}
		}
		for _, d := range byCol[v] {
			at := -1
			for i := range col {
				if col[i].src == d.From {
					at = i
					break
				}
			}
			switch d.Op {
			case DeltaAdd:
				if at >= 0 {
					col[at].w += d.W
				} else {
					col = append(col, inEdge{d.From, d.W})
				}
			case DeltaSet:
				if at >= 0 {
					col[at].w = d.W
				} else {
					col = append(col, inEdge{d.From, d.W})
				}
			case DeltaRemove:
				if at < 0 {
					return nil, nil, fmt.Errorf("graph: cannot remove missing edge (%d,%d)", d.From, d.To)
				}
				col = append(col[:at], col[at+1:]...)
			}
		}
		if len(col) == 0 {
			col = []inEdge{{v, 1}}
		} else {
			sum := 0.0
			for i := range col {
				sum += col[i].w
			}
			if math.IsNaN(sum) || math.IsInf(sum, 0) || sum <= 0 {
				return nil, nil, fmt.Errorf("graph: in-weights of node %d sum to %v after deltas", v, sum)
			}
			for i := range col {
				col[i].w /= sum
			}
		}
		slices.SortFunc(col, func(a, b inEdge) int { return int(a.src) - int(b.src) })
		cols[j] = col
	}

	// Assemble the in-CSR: each run of unchanged columns between two
	// changed ones is copied from g in one piece, shifted by the edges the
	// changed columns before it gained or lost.
	total := int64(g.M())
	for j, v := range changed {
		total += int64(len(cols[j])) - int64(g.inStart[v+1]-g.inStart[v])
	}
	if total > math.MaxInt32 {
		return nil, nil, fmt.Errorf("graph: delta-apply would produce %d edges, exceeding storage limits", total)
	}
	m := int(total)
	ng := &Graph{n: g.n, columnStochastic: true,
		inStart: make([]int32, g.n+1), inSrc: make([]int32, m), inW: make([]float64, m),
		outStart: make([]int32, g.n+1), outDst: make([]int32, m), outW: make([]float64, m),
	}
	next := int32(0) // the first column not placed yet
	for j, v := range changed {
		copyRun(ng.inStart, g.inStart, ng.inSrc, g.inSrc, ng.inW, g.inW, next, v)
		pos := ng.inStart[v]
		for _, e := range cols[j] {
			ng.inSrc[pos], ng.inW[pos] = e.src, e.w
			pos++
		}
		ng.inStart[v+1] = pos
		next = v + 1
	}
	copyRun(ng.inStart, g.inStart, ng.inSrc, g.inSrc, ng.inW, g.inW, next, n)

	// The out-CSR likewise: the rows that change are those of the changed
	// columns' sources, old and new. Each is g's row less its edges into
	// changed columns, merged with its edges in the new columns by
	// destination — the (From, To) order Builder.Build produces. The other
	// rows are copied in runs.
	type outEdge struct {
		src, dst int32
		w        float64
	}
	var fresh []outEdge
	var srcs []int32
	for j, v := range changed {
		old, _ := g.InNeighbors(v)
		srcs = append(srcs, old...)
		for _, e := range cols[j] {
			fresh = append(fresh, outEdge{e.src, v, e.w})
			srcs = append(srcs, e.src)
		}
	}
	slices.Sort(srcs)
	srcs = slices.Compact(srcs)
	// Stable by source: changed ascends, so each source's edges stay in
	// destination order.
	slices.SortStableFunc(fresh, func(a, b outEdge) int { return cmp.Compare(a.src, b.src) })
	next = 0
	for _, u := range srcs {
		copyRun(ng.outStart, g.outStart, ng.outDst, g.outDst, ng.outW, g.outW, next, u)
		pos := ng.outStart[u]
		dst, w := g.OutNeighbors(u)
		for i, v := range dst {
			if _, hit := slices.BinarySearch(changed, v); hit {
				continue
			}
			for len(fresh) > 0 && fresh[0].src == u && fresh[0].dst < v {
				ng.outDst[pos], ng.outW[pos] = fresh[0].dst, fresh[0].w
				fresh, pos = fresh[1:], pos+1
			}
			ng.outDst[pos], ng.outW[pos] = v, w[i]
			pos++
		}
		for len(fresh) > 0 && fresh[0].src == u {
			ng.outDst[pos], ng.outW[pos] = fresh[0].dst, fresh[0].w
			fresh, pos = fresh[1:], pos+1
		}
		ng.outStart[u+1] = pos
		next = u + 1
	}
	copyRun(ng.outStart, g.outStart, ng.outDst, g.outDst, ng.outW, g.outW, next, n)
	return ng, changed, nil
}

// copyRun copies the rows of nodes [a, b), unchanged between two CSRs, from
// (start, idx, w) into (nstart, nidx, nw): their entries in one piece, their
// offsets shifted by where row a now starts (nstart[a], already set).
func copyRun(nstart, start, nidx, idx []int32, nw, w []float64, a, b int32) {
	shift := nstart[a] - start[a]
	lo, hi := start[a], start[b]
	copy(nidx[lo+shift:hi+shift], idx[lo:hi])
	copy(nw[lo+shift:hi+shift], w[lo:hi])
	for v := a + 1; v <= b; v++ {
		nstart[v] = start[v] + shift
	}
}
