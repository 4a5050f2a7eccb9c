package dynamic_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"ovm/internal/core"
	"ovm/internal/dynamic"
	"ovm/internal/opinion"
	"ovm/internal/postings"
	"ovm/internal/voting"
	"ovm/internal/walks"
	"ovm/internal/walks/walksref"
)

// maxFuzzBatches caps a fuzz input's batch sequence: every step replays and
// regenerates from scratch, so a step costs more the later it comes.
const maxFuzzBatches = 16

// decodeBatches reads a batch sequence from fuzz input: a batch is one count
// byte (1 + b%4 ops) and four bytes per op — kind, two node or candidate
// picks, a value. Every batch is valid against the system the earlier ones
// leave behind: a remove_edge takes a real in-edge of its node, and a batch
// ApplySystem would still refuse is dropped.
func decodeBatches(sys *opinion.System, data []byte) (batches []dynamic.Batch, systems []*opinion.System, changes []*dynamic.ChangeSet) {
	n := int32(sys.N())
	for len(data) > 0 && len(batches) < maxFuzzBatches {
		ops := 1 + int(data[0]%4)
		data = data[1:]
		var b dynamic.Batch
		removed := map[[2]int32]bool{}
		for ; ops > 0 && len(data) >= 4; ops-- {
			kind, a, c, x := data[0], int32(data[1])%n, int32(data[2])%n, float64(data[3])/255
			data = data[4:]
			if a == c {
				c = (c + 1) % n
			}
			cand := int(kind/5) % sys.R()
			switch kind % 5 {
			case 0:
				b = append(b, dynamic.Op{Kind: dynamic.OpAddEdge, From: a, To: c, W: 0.25 + x})
			case 1:
				b = append(b, dynamic.Op{Kind: dynamic.OpSetWeight, From: a, To: c, W: 0.25 + x})
			case 2:
				src, _ := sys.Candidate(0).G.InNeighbors(c)
				if len(src) == 0 || removed[[2]int32{src[0], c}] {
					continue
				}
				removed[[2]int32{src[0], c}] = true
				b = append(b, dynamic.Op{Kind: dynamic.OpRemoveEdge, From: src[0], To: c})
			case 3:
				b = append(b, dynamic.Op{Kind: dynamic.OpSetOpinion, Cand: cand, Node: a, Value: x})
			default:
				b = append(b, dynamic.Op{Kind: dynamic.OpSetStubbornness, Cand: cand, Node: a, Value: x})
			}
		}
		if len(b) == 0 {
			continue
		}
		next, cs, err := dynamic.ApplySystem(sys, b)
		if err != nil {
			continue
		}
		sys = next
		batches, systems, changes = append(batches, b), append(systems, next), append(changes, cs)
	}
	return batches, systems, changes
}

// op spells one fuzz-input op: kind, node a, node or candidate c, value.
func op(kind, a, c, x byte) []byte { return []byte{kind, a, c, x} }

// repairCorpus is the checked-in seed corpus. Its one-op batches build
// overlays over several repairs, regenerating owners an earlier repair
// already replaced; its four-op edge batches cross the fold threshold.
var repairCorpus = [][]byte{
	slices.Concat([]byte{0}, op(4, 7, 0, 200), []byte{0}, op(4, 9, 0, 30), []byte{0}, op(0, 3, 7, 90),
		[]byte{0}, op(3, 7, 0, 10), []byte{0}, op(4, 7, 0, 120), []byte{0}, op(2, 0, 9, 0)),
	slices.Concat([]byte{3}, op(0, 1, 2, 10), op(0, 4, 5, 20), op(1, 6, 7, 30), op(2, 0, 8, 0),
		[]byte{1}, op(4, 2, 0, 250), op(9, 11, 0, 60)),
	slices.Concat([]byte{0}, op(4, 40, 0, 5), []byte{0}, op(4, 41, 0, 15), []byte{0}, op(4, 42, 0, 25),
		[]byte{0}, op(4, 43, 0, 35), []byte{0}, op(4, 44, 0, 45), []byte{0}, op(4, 45, 0, 55),
		[]byte{0}, op(4, 46, 0, 65), []byte{0}, op(4, 47, 0, 75), []byte{0}, op(4, 48, 0, 85)),
}

// FuzzRepairMatchesRebuild is the write-side fuzz: after every step of a
// batch sequence, an RS sketch set (θ) and an RW walk set (λ), each
// repaired batch by batch at parallelism 1 and at 4, over a ground built
// afresh at every step and over one Ground.Next carries, must equal
// Draw.Generate + EnsureIndex on ReplaySystem of the batches so far — the
// folded Snapshot and the postings CompactPostings stores, decoded, value
// for value — and ContinueGreedy over the overlaid set must equal walksref
// over the rebuilt one for the plurality score. Run over the seed corpus it must also see overlays built
// on overlays and a fold.
func FuzzRepairMatchesRebuild(f *testing.F) {
	var inputs, overlaid, folded int
	for _, in := range repairCorpus {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		o, fo := checkRepairChain(t, data)
		inputs, overlaid, folded = inputs+1, overlaid+o, folded+fo
	})
	// A fuzzing run executes inputs in worker processes; only a plain run of
	// the whole corpus here can vouch for what the corpus covers.
	f.Logf("%d inputs: %d overlay repairs, %d folds", inputs, overlaid, folded)
	if inputs == len(repairCorpus) && (overlaid == 0 || folded == 0) {
		f.Fatalf("seed corpus made %d overlay repairs and %d folds; it must make both", overlaid, folded)
	}
}

// storedPostings decodes a set's postings as an index file stores them
// (CompactPostings) back to CSR arrays.
func storedPostings(set *walks.Set) postings.CSR {
	c, chunks := set.CompactPostings()
	cp := *c
	cp.Data = slices.Concat(chunks...)
	return cp.ToCSR()
}

// checkRepairChain runs FuzzRepairMatchesRebuild's checks over one input and
// counts the repairs that left an overlay and those that folded.
func checkRepairChain(t *testing.T, data []byte) (overlaid, folded int) {
	const (
		n       = 150
		seed    = int64(5)
		horizon = 4
		k       = 4
	)
	sys := testSystem(t, n, 13)
	batches, systems, changes := decodeBatches(sys, data)
	score := voting.Plurality{}
	// A repair runs on a ground built afresh for its system and on the one
	// Ground.Next chained through the steps, each with its own set.
	type run struct {
		par     int
		chained bool
	}
	runs := []run{{1, false}, {4, false}, {1, true}, {4, true}}
	for _, d := range walkDraws(seed, 4, 600) {
		sets := map[run]*walks.Set{}
		for _, r := range runs {
			sets[r] = drawOn(t, d, sys, horizon)
		}
		chained := groundOf(t, sys)
		for step, cs := range changes {
			cur := systems[step]
			var err error
			if chained, err = chained.Next(cur.Candidate(0), cs.EdgeTouched); err != nil {
				t.Fatal(err)
			}
			replayed, _, err := dynamic.ReplaySystem(sys, batches[:step+1])
			if err != nil {
				t.Fatal(err)
			}
			rebuilt := drawOn(t, d, replayed, horizon)
			want, err := rebuilt.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			comp := core.CompetitorOpinions(cur, 0, horizon, 1)
			ref := walksref.New(rebuilt, 0, cur.Candidate(0).Init, comp, d.Weights(rebuilt)).SelectGreedy(k, score)
			for _, r := range runs {
				par := r.par
				name := fmt.Sprintf("theta=%d/lambda=%d P=%d chained=%v step %d", d.Theta, d.Lambda, par, r.chained, step)
				gr := chained
				if !r.chained {
					gr = groundOf(t, cur)
				}
				set, st, err := d.Repair(nil, gr, sets[r], cs.WalkMask(n, 0), par)
				if err != nil {
					t.Fatal(err)
				}
				sets[r] = set
				if st.Folded {
					folded++
				} else if st.OwnersInvalidated > 0 {
					overlaid++
				}
				got, err := set.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: repaired walks differ from a rebuild on the replayed system", name)
				}
				if !reflect.DeepEqual(storedPostings(set), storedPostings(rebuilt)) {
					t.Fatalf("%s: repaired postings differ from a rebuild on the replayed system", name)
				}
				p := &core.Problem{Sys: cur, Target: 0, Horizon: horizon, K: k, Score: score}
				run, err := d.Greedy(p, set.Clone(), comp, nil, par)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(run.Seeds, ref.Seeds) || !slices.Equal(run.Gains, ref.Gains) ||
					math.Float64bits(run.Value) != math.Float64bits(ref.Value) {
					t.Fatalf("%s: greedy %v %v %v, reference %v %v %v", name, run.Seeds, run.Gains, run.Value, ref.Seeds, ref.Gains, ref.Value)
				}
			}
		}
	}
	return overlaid, folded
}
