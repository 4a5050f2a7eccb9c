// Package voting implements the five voting-based scores of §II-B —
// cumulative, plurality, p-approval, positional-p-approval, and Copeland —
// together with the rank function β, Condorcet-winner detection, and the
// rank-position histogram used by Fig 10.
//
// All scores operate on an opinion matrix B with r rows (candidates) and n
// columns (users), typically B^(t)[S] produced by the opinion package. Each
// score is non-negative and non-decreasing in the target's seed set; only
// the cumulative score is submodular (Table II).
package voting

import (
	"fmt"
	"math"
	"strings"
)

// Rank returns β(b_qv): the rank of candidate q in user v's preference
// order, defined as the number of candidates x (including q) with
// b_xv ≥ b_qv. Rank 1 means q is strictly preferred over all others.
func Rank(B [][]float64, q, v int) int {
	bq := B[q][v]
	r := 0
	for x := range B {
		if B[x][v] >= bq {
			r++
		}
	}
	return r
}

// Score is a voting-based winning criterion F(B, q).
type Score interface {
	// Name returns a short identifier, e.g. "plurality".
	Name() string
	// Eval computes F(B, cq) for target candidate q.
	Eval(B [][]float64, q int) float64
}

// Cumulative is Equation 3: the sum of all users' opinions about q.
type Cumulative struct{}

// Name implements Score.
func (Cumulative) Name() string { return "cumulative" }

// Eval implements Score.
func (Cumulative) Eval(B [][]float64, q int) float64 {
	sum := 0.0
	for _, b := range B[q] {
		sum += b
	}
	return sum
}

// Plurality is Equation 4: the number of users who strictly prefer q to
// every other candidate.
type Plurality struct{}

// Name implements Score.
func (Plurality) Name() string { return "plurality" }

// Eval implements Score.
func (Plurality) Eval(B [][]float64, q int) float64 {
	n := len(B[q])
	count := 0
	for v := 0; v < n; v++ {
		if Rank(B, q, v) <= 1 {
			count++
		}
	}
	return float64(count)
}

// PApproval is Equation 5: the number of users ranking q within their top
// P candidates (ties share the worse rank, so equal opinions block rank 1).
type PApproval struct {
	P int
}

// Name implements Score.
func (s PApproval) Name() string { return fmt.Sprintf("%d-approval", s.P) }

// Eval implements Score.
func (s PApproval) Eval(B [][]float64, q int) float64 {
	n := len(B[q])
	count := 0
	for v := 0; v < n; v++ {
		if Rank(B, q, v) <= s.P {
			count++
		}
	}
	return float64(count)
}

// Validate checks 1 ≤ P ≤ r.
func (s PApproval) Validate(r int) error {
	if s.P < 1 || s.P > r {
		return fmt.Errorf("voting: p-approval needs 1 <= P <= r, got P=%d r=%d", s.P, r)
	}
	return nil
}

// Positional is Equation 6: the positional-p-approval score. Omega[i-1]
// holds the position weight ω[i] for rank i (1-indexed in the paper);
// weights must be non-increasing and lie in [0,1]. A user at rank β ≤ P
// contributes ω[β]; users ranked below P contribute 0.
type Positional struct {
	P     int
	Omega []float64
}

// Name implements Score.
func (s Positional) Name() string { return fmt.Sprintf("positional-%d-approval", s.P) }

// Eval implements Score.
func (s Positional) Eval(B [][]float64, q int) float64 {
	n := len(B[q])
	sum := 0.0
	for v := 0; v < n; v++ {
		beta := Rank(B, q, v)
		if beta <= s.P {
			sum += s.Omega[beta-1]
		}
	}
	return sum
}

// Validate checks the §II-B constraints on P and the position weights.
func (s Positional) Validate(r int) error {
	if s.P < 1 || s.P > r {
		return fmt.Errorf("voting: positional needs 1 <= P <= r, got P=%d r=%d", s.P, r)
	}
	if len(s.Omega) < s.P {
		return fmt.Errorf("voting: need at least P=%d weights, got %d", s.P, len(s.Omega))
	}
	for i, w := range s.Omega {
		if w < 0 || w > 1 {
			return fmt.Errorf("voting: omega[%d]=%v outside [0,1]", i+1, w)
		}
		if i > 0 && w > s.Omega[i-1] {
			return fmt.Errorf("voting: omega[%d]=%v exceeds omega[%d]=%v (must be non-increasing)",
				i+1, w, i, s.Omega[i-1])
		}
	}
	return nil
}

// Copeland is Equation 7: the number of one-on-one competitions q wins,
// where q beats x iff strictly more users prefer q to x than prefer x to q.
type Copeland struct{}

// Name implements Score.
func (Copeland) Name() string { return "copeland" }

// Eval implements Score.
func (Copeland) Eval(B [][]float64, q int) float64 {
	wins := 0
	for x := range B {
		if x == q {
			continue
		}
		if BeatsPairwise(B, q, x) {
			wins++
		}
	}
	return float64(wins)
}

// BeatsPairwise reports whether q ≻_M x: more users hold a strictly higher
// opinion of q than of x, compared to the other way around.
func BeatsPairwise(B [][]float64, q, x int) bool {
	prefer, against := PairwiseCounts(B, q, x)
	return prefer > against
}

// PairwiseCounts returns (#users with b_qv > b_xv, #users with b_qv < b_xv).
func PairwiseCounts(B [][]float64, q, x int) (prefer, against int) {
	n := len(B[q])
	for v := 0; v < n; v++ {
		switch {
		case B[q][v] > B[x][v]:
			prefer++
		case B[q][v] < B[x][v]:
			against++
		}
	}
	return prefer, against
}

// CondorcetWinner returns the candidate that wins every one-on-one
// competition (Copeland score r−1), or −1 if none exists.
func CondorcetWinner(B [][]float64) int {
	r := len(B)
	for q := 0; q < r; q++ {
		if int(Copeland{}.Eval(B, q)) == r-1 {
			return q
		}
	}
	return -1
}

// Winner returns the candidate with the maximum score under F (ties go to
// the lowest index) along with the winning score.
func Winner(B [][]float64, f Score) (int, float64) {
	best, bestScore := -1, math.Inf(-1)
	for q := range B {
		if s := f.Eval(B, q); s > bestScore {
			best, bestScore = q, s
		}
	}
	return best, bestScore
}

// RankHistogram returns, for each rank position i = 1..r, the number of
// users that place candidate q at rank i (Fig 10).
func RankHistogram(B [][]float64, q int) []int {
	r := len(B)
	hist := make([]int, r)
	n := len(B[q])
	for v := 0; v < n; v++ {
		beta := Rank(B, q, v)
		if beta >= 1 && beta <= r {
			hist[beta-1]++
		}
	}
	return hist
}

// PluralityAsPositional returns the positional score equivalent to
// plurality (p = 1, ω = [1]).
func PluralityAsPositional() Positional {
	return Positional{P: 1, Omega: []float64{1}}
}

// PApprovalAsPositional returns the positional score equivalent to
// p-approval (ω[i] = 1 for i ≤ p).
func PApprovalAsPositional(p int) Positional {
	om := make([]float64, p)
	for i := range om {
		om[i] = 1
	}
	return Positional{P: p, Omega: om}
}

// BordaAsPositional returns the classic Borda count expressed in the
// positional-p-approval framework: rank i contributes (r−i)/(r−1), so the
// top rank earns 1 and the bottom rank 0. This realizes the paper's
// "more voting scores" future-work direction with zero new machinery —
// every selector (DM sandwich, RW, RS) applies unchanged because Borda's
// weights are non-increasing and lie in [0,1].
func BordaAsPositional(r int) Positional {
	om := make([]float64, r)
	for i := range om {
		om[i] = float64(r-1-i) / float64(r-1)
	}
	return Positional{P: r, Omega: om}
}

// ScoreNames lists the score names ParseScore accepts.
var ScoreNames = []string{"cumulative", "plurality", "p-approval", "positional", "copeland", "borda"}

// ParseScore builds the named score for a system with r candidates and
// validates it against r. p parameterizes p-approval and positional, omega
// holds positional's weights ω[1..p]; the other names ignore both. It is the
// one parser of the score vocabulary: the ovm command and the daemon's
// request decoder both call it.
func ParseScore(name string, p int, omega []float64, r int) (Score, error) {
	var sc Score
	switch name {
	case "cumulative":
		sc = Cumulative{}
	case "plurality":
		sc = Plurality{}
	case "p-approval":
		sc = PApproval{P: p}
	case "positional":
		sc = Positional{P: p, Omega: omega}
	case "copeland":
		sc = Copeland{}
	case "borda":
		sc = BordaAsPositional(r)
	default:
		last := len(ScoreNames) - 1
		return nil, fmt.Errorf("unknown score %q (want %s, or %s)", name, strings.Join(ScoreNames[:last], ", "), ScoreNames[last])
	}
	if v, ok := sc.(interface{ Validate(r int) error }); ok {
		if err := v.Validate(r); err != nil {
			return nil, fmt.Errorf("invalid score: %w", err)
		}
	}
	return sc, nil
}
