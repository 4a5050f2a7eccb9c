// Package walksref is the reference that the greedy selection of package
// walks is compared against, bit for bit: the selection loops of Algorithms
// 4 and 5 written from the definition. Every round it rescans every walk for
// every candidate, and it truncates by scanning the walks. It is serial,
// keeps no index, cache or scratch, and adds floating-point numbers in the
// grouping and order of the fold contract in package walks' doc, whose rule
// numbers the comments here cite. Only tests import it; a score outside the
// five kinds is a bug in the test and panics.
package walksref

import (
	"math"
	"slices"

	"ovm/internal/core"
	"ovm/internal/voting"
	"ovm/internal/walks"
)

// Oracle holds a copy of a walk set's truncation state (active prefixes and
// seeds) beside the estimator inputs. The set is not read after New.
type Oracle struct {
	walk   [][]int32 // active prefix of each walk; a truncation reslices it
	owner  []int     // owner index of each walk
	node   []int32   // start node of each owner
	lambda []float64 // walks per owner
	bounds []int32   // walks.ScanShardBounds
	inSeed []bool

	target     int
	b0, weight []float64
	comp       [][]float64
}

// New snapshots set; the arguments are those of walks.NewEstimator.
func New(set *walks.Set, target int, b0 []float64, comp [][]float64, weight []float64) *Oracle {
	n := set.N()
	o := &Oracle{
		bounds: walks.ScanShardBounds(n, set.NumWalks()),
		inSeed: make([]bool, n),
		target: target, b0: b0, weight: weight, comp: comp,
	}
	for _, u := range set.Seeds() {
		o.inSeed[u] = true
	}
	for i := 0; i < set.NumOwners(); i++ {
		o.node = append(o.node, set.Owner(i))
		o.lambda = append(o.lambda, float64(set.OwnerWalkCount(i)))
		for j := 0; j < set.OwnerWalkCount(i); j++ {
			o.walk = append(o.walk, set.WalkNodes(len(o.walk)))
			o.owner = append(o.owner, i)
		}
	}
	return o
}

// WalkLen returns the length of walk w's active prefix.
func (o *Oracle) WalkLen(w int) int { return len(o.walk[w]) }

// AddSeed marks u as a seed and cuts every walk at its first occurrence of
// u (Post-Generation Truncation, §V-B).
func (o *Oracle) AddSeed(u int32) {
	o.inSeed[u] = true
	for w, seq := range o.walk {
		if j := slices.Index(seq, u); j >= 0 {
			o.walk[w] = seq[:j+1]
		}
	}
}

// value is Y(w): 1 if the walk ends at a seed, else its end node's initial
// opinion.
func (o *Oracle) value(w int) float64 {
	end := o.walk[w][len(o.walk[w])-1]
	if o.inSeed[end] {
		return 1
	}
	return o.b0[end]
}

// headroom is rem(w) if walk w contains u, else 0; w counts when it is > 0.
func (o *Oracle) headroom(w int, u int32) float64 {
	if !slices.Contains(o.walk[w], u) {
		return 0
	}
	return 1 - o.value(w)
}

// estimates is rule 1.
func (o *Oracle) estimates() []float64 {
	est := make([]float64, len(o.node))
	for w, i := range o.owner {
		est[i] += o.value(w)
	}
	for i := range est {
		est[i] /= o.lambda[i]
	}
	return est
}

// positional returns the rank weights of a score of the plurality family.
func positional(score voting.Score) voting.Positional {
	switch s := score.(type) {
	case voting.Plurality:
		return voting.PluralityAsPositional()
	case voting.PApproval:
		return voting.PApprovalAsPositional(s.P)
	case voting.Positional:
		return s
	}
	panic("walksref: unsupported score " + score.Name())
}

// contrib is ω[β]·1[β ≤ p] for owner i at target opinion b, where β is 1
// plus the number of competitors whose opinion at i's node is at least b.
func (o *Oracle) contrib(i int, b float64, s voting.Positional) float64 {
	beta := 1
	for x, row := range o.comp {
		if x != o.target && row[o.node[i]] >= b {
			beta++
		}
	}
	if beta <= s.P {
		return s.Omega[beta-1]
	}
	return 0
}

// copeland counts the competitors the target beats one on one (Equation 47)
// by rule 4: the ± counters folded over all owners at est; then, for every
// entry d of delta, owner i's comparison at est[i] taken out and the one at
// est[i]+d put in. A nil delta scores the current seed set.
func (o *Oracle) copeland(est, delta []float64) (won float64) {
	plus, minus := make([]float64, len(o.comp)), make([]float64, len(o.comp))
	compare := func(i int, b, sign float64) {
		for x, row := range o.comp {
			switch {
			case x == o.target:
			case b > row[o.node[i]]:
				plus[x] += sign * o.weight[i]
			case b < row[o.node[i]]:
				minus[x] += sign * o.weight[i]
			}
		}
	}
	for i := range est {
		compare(i, est[i], 1)
	}
	for i, d := range delta {
		if d > 0 {
			compare(i, est[i], -1)
			compare(i, est[i]+d, 1)
		}
	}
	for x := range o.comp {
		if x != o.target && plus[x] > minus[x] {
			won++
		}
	}
	return won
}

// EstimatedScore is F̂ of the current seed set (Equations 35, 42, 47).
func (o *Oracle) EstimatedScore(score voting.Score) (total float64) {
	est := o.estimates()
	switch score.(type) {
	case voting.Cumulative:
		for i := range est {
			total += o.weight[i] * est[i]
		}
	case voting.Copeland:
		total = o.copeland(est, nil)
	default:
		pos := positional(score)
		for i := range est {
			total += o.weight[i] * o.contrib(i, est[i], pos)
		}
	}
	return total
}

// gain is candidate u's estimated marginal gain and whether u competes this
// round (rules 2 to 4).
func (o *Oracle) gain(u int32, score voting.Score, est []float64) (g float64, competes bool) {
	if _, ok := score.(voting.Cumulative); ok {
		for s := 0; s+1 < len(o.bounds); s++ {
			partial := 0.0
			for w := int(o.bounds[s]); w < int(o.bounds[s+1]); w++ {
				if rem := o.headroom(w, u); rem > 0 {
					partial += o.weight[o.owner[w]] * rem / o.lambda[o.owner[w]]
				}
			}
			g += partial
		}
		return g, g > 0
	}
	// Rule 3: delta[i] > 0 is the entry of (u, i).
	delta := make([]float64, len(est))
	for w, i := range o.owner {
		if rem := o.headroom(w, u); rem > 0 {
			delta[i] += rem / o.lambda[i]
			competes = true
		}
	}
	if _, ok := score.(voting.Copeland); !ok {
		pos := positional(score)
		for i, d := range delta {
			if d > 0 {
				g += o.weight[i] * (o.contrib(i, est[i]+d, pos) - o.contrib(i, est[i], pos))
			}
		}
		return g, competes
	}
	return o.copeland(est, delta) - o.copeland(est, nil), competes
}

// SelectGreedy runs k greedy rounds from the current seed set (rule 5).
func (o *Oracle) SelectGreedy(k int, score voting.Score) *core.GreedyResult {
	res := &core.GreedyResult{}
	for round := 0; round < k; round++ {
		est := o.estimates()
		best, bestGain := -1, math.Inf(-1)
		// Ascending ids and a strict >: the lowest id wins a tie.
		for u, seeded := range o.inSeed {
			if seeded {
				continue
			}
			if g, ok := o.gain(int32(u), score, est); ok && g > bestGain {
				best, bestGain = u, g
			}
		}
		if best < 0 {
			if best, bestGain = slices.Index(o.inSeed, false), 0; best < 0 {
				break
			}
		}
		o.AddSeed(int32(best))
		res.Seeds = append(res.Seeds, int32(best))
		res.Gains = append(res.Gains, bestGain)
	}
	res.Value = o.EstimatedScore(score)
	return res
}
