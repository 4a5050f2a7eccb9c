package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"ovm/internal/core"
	"ovm/internal/datasets"
	"ovm/internal/dynamic"
	"ovm/internal/opinion"
	"ovm/internal/sketch"
	"ovm/internal/voting"
	"ovm/internal/walks"
)

// The correctness oracle. It never looks at the index file or the service:
// it synthesises the dataset again, generates the sketches from scratch
// and compares the daemon's recorded answers with the library's. It runs
// after the server has stopped, outside every timed region.

func buildScore(sc scoreSpec, r int) voting.Score {
	switch sc.Name {
	case "cumulative":
		return voting.Cumulative{}
	case "plurality":
		return voting.Plurality{}
	case "p-approval":
		return voting.PApproval{P: sc.P}
	case "borda":
		return voting.BordaAsPositional(r)
	case "copeland":
		return voting.Copeland{}
	}
	panic("benchmark: unknown score " + sc.Name) // scores is a fixed table
}

// answerJSON is the union of the three query answers, parsed from the
// answer prefix (the response up to its "cached" field).
type answerJSON struct {
	Seeds      []int32 `json:"seeds"`
	ExactValue float64 `json:"exactValue"`
	Value      float64 `json:"value"`
	Wins       bool    `json:"wins"`
	Epoch      int64   `json:"epoch"`
}

func parseAnswer(prefix []byte) (answerJSON, error) {
	var a answerJSON
	err := json.Unmarshal(append(append([]byte(nil), prefix...), '}'), &a)
	return a, err
}

// reference answers select-seeds the way the paper states it: sketches
// generated from the seed, greedy selection, exact evaluation. With one
// key to answer it calls sketch.SelectWithTheta; with several on the same
// system it runs that function's own steps (GenerateSet, then SelectOnSet)
// and keeps the generated set, which saves 0.6 s per key on the 1M-node
// graph.
type reference struct {
	sys    *opinion.System
	theta  int
	shared bool
	set    *walks.Set
}

func (ref *reference) selectSeeds(sc scoreSpec, k int) ([]int32, float64, error) {
	score := buildScore(sc, ref.sys.R())
	prob := &core.Problem{Sys: ref.sys, Target: target, Horizon: horizon, K: k, Score: score}
	var res *sketch.Result
	var err error
	if !ref.shared {
		res, err = sketch.SelectWithTheta(prob, ref.theta, indexSeed, 0)
	} else {
		if ref.set == nil {
			if ref.set, err = sketch.GenerateSet(prob, ref.theta, indexSeed, 0); err != nil {
				return nil, 0, err
			}
		}
		res, err = sketch.SelectOnSet(prob, ref.set.Clone(), ref.theta, nil, 0)
	}
	if err != nil {
		return nil, 0, err
	}
	exact, err := core.EvaluateExact(ref.sys, target, horizon, score, res.Seeds, 0)
	return res.Seeds, exact, err
}

func (ref *reference) checkSelect(res *result, what string, sc scoreSpec, k int, got answerJSON) {
	seeds, exact, err := ref.selectSeeds(sc, k)
	if err != nil {
		res.problem("oracle: %s: %v", what, err)
		return
	}
	if !slices.Equal(seeds, got.Seeds) || exact != got.ExactValue {
		res.problem("oracle: %s: daemon answered seeds %v value %v, reference %v value %v",
			what, got.Seeds, got.ExactValue, seeds, exact)
	}
}

// runOracle checks the answers a finished run recorded. sampleN bounds how
// many cold select-seeds keys are recomputed.
func runOracle(res *result, w workload, sampleN int) {
	d, err := datasets.ByName(datasetName, datasets.Options{N: w.N, Mu: 10, Seed: indexSeed})
	if err != nil {
		res.problem("oracle: %v", err)
		return
	}
	base := &reference{sys: d.Sys, theta: w.Theta, shared: true}

	// (a) Answers given at epoch 0, whatever the key kind. Cold streams are
	// sampled; the 15 warm keys are all checked.
	var answered []int
	for i, a := range res.answers {
		if a != nil && answerEpoch(a) == 0 {
			answered = append(answered, i)
		}
	}
	rng := rand.New(rand.NewSource(res.Seed))
	rng.Shuffle(len(answered), func(i, j int) { answered[i], answered[j] = answered[j], answered[i] })
	selects := 0
	for _, i := range answered {
		k := res.keys[i]
		got, err := parseAnswer(res.answers[i])
		if err != nil {
			res.problem("oracle: unreadable answer %s", res.answers[i])
			continue
		}
		what := fmt.Sprintf("%s %s k=%d", k.Path, k.Score.Name, k.K)
		switch k.Path {
		case "/v1/select-seeds":
			if selects++; selects <= sampleN {
				base.checkSelect(res, what, k.Score, k.K, got)
			}
		case "/v1/evaluate":
			v, err := core.EvaluateExact(d.Sys, target, horizon, buildScore(k.Score, d.Sys.R()), k.Seeds, 0)
			if err != nil || v != got.Value {
				res.problem("oracle: %s: daemon %v, reference %v (%v)", what, got.Value, v, err)
			}
		case "/v1/wins":
			ok, err := core.Wins(d.Sys, target, horizon, buildScore(k.Score, d.Sys.R()), k.Seeds)
			if err != nil || ok != got.Wins {
				res.problem("oracle: %s: daemon %v, reference %v (%v)", what, got.Wins, ok, err)
			}
		}
	}

	// (b) The final state: every accepted batch replayed onto the fresh
	// system, then the probe selection from scratch on the result.
	final, _, err := dynamic.ReplaySystem(d.Sys, res.sent)
	if err != nil {
		res.problem("oracle: replaying %d batches: %v", len(res.sent), err)
		return
	}
	got, err := parseAnswer(res.finalSel)
	if err != nil {
		res.problem("oracle: unreadable final answer %s", res.finalSel)
		return
	}
	p := setupProbe()
	(&reference{sys: final, theta: w.Theta}).checkSelect(res,
		fmt.Sprintf("final probe after %d batches", len(res.sent)), p.Score, p.K, got)
}
