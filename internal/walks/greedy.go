package walks

import (
	"fmt"
	"slices"

	"ovm/internal/core"
	"ovm/internal/voting"
)

type scoreKind int

const (
	kindCumulative scoreKind = iota
	kindPositional
	kindCopeland
)

func classifyScore(score voting.Score) (scoreKind, voting.Positional, error) {
	switch s := score.(type) {
	case voting.Cumulative:
		return kindCumulative, voting.Positional{}, nil
	case voting.Plurality:
		return kindPositional, voting.PluralityAsPositional(), nil
	case voting.PApproval:
		return kindPositional, voting.PApprovalAsPositional(s.P), nil
	case voting.Positional:
		return kindPositional, s, nil
	case voting.Copeland:
		return kindCopeland, voting.Positional{}, nil
	default:
		return 0, voting.Positional{}, fmt.Errorf("walks: unsupported score %s", score.Name())
	}
}

// SelectGreedy runs the walk-based greedy seed selection (the selection
// loops of Algorithm 4 and Algorithm 5): k rounds, each finding the
// candidate with the best estimated marginal gain and truncating the walks
// at the chosen seed. Rounds are incremental over the postings index: gains
// are cached and only the parts invalidated by the previous seed's walks are
// recomputed, so a round costs O(elements on the walks the seed touches)
// instead of a full rescan. Seeds, gains and scores are bit-identical to the
// from-the-definition oracle (package walksref) under the fold contract in
// the package doc, and parallelism-invariant: shard geometry and merge order
// are fixed and ties break to the lowest node id.
func (e *Estimator) SelectGreedy(k int, score voting.Score) (*core.GreedyResult, error) {
	n := e.set.N()
	if k < 1 || k > n {
		return nil, fmt.Errorf("walks: need 1 <= k <= n, got k=%d n=%d", k, n)
	}
	kind, pos, err := classifyScore(score)
	if err != nil {
		return nil, err
	}
	res := &core.GreedyResult{}
	// Only Copeland's gain is relative to the current score F̂(S); the other
	// kinds need F̂ once, for res.Value.
	var curScore float64
	if kind == kindCopeland {
		if curScore, err = e.EstimatedScore(score); err != nil {
			return nil, err
		}
	}
	// Entry lists survive across SelectGreedy runs (they are score-
	// independent) but cached gains do not: force one full re-evaluation.
	e.rankAll = true
	e.resetRoundCosts()
	for round := 0; round < k; round++ {
		if e.ctx != nil {
			if err := e.ctx.Err(); err != nil {
				return nil, err
			}
		}
		e.beginRound()
		var best int32
		var bestGain float64
		switch kind {
		case kindCumulative:
			best, bestGain = e.bestCumulative()
		case kindPositional:
			best, bestGain = e.bestRank(pos, false, curScore)
		case kindCopeland:
			best, bestGain = e.bestRank(voting.Positional{}, true, curScore)
		}
		res.Evaluations++
		if best < 0 {
			// All walks saturated: every non-seed node has zero estimated
			// gain, and the lowest id takes the round.
			if best, bestGain = int32(slices.Index(e.set.inSeed, false)), 0; best < 0 {
				break
			}
		}
		e.AddSeed(best)
		e.endRound(best)
		res.Seeds = append(res.Seeds, best)
		res.Gains = append(res.Gains, bestGain)
		if kind == kindCopeland {
			if curScore, err = e.EstimatedScore(score); err != nil {
				return nil, err
			}
		}
	}
	if res.Value, err = e.EstimatedScore(score); err != nil {
		return nil, err
	}
	return res, nil
}
