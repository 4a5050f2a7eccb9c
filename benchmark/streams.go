package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"

	"ovm/internal/dynamic"
)

// Every request the daemon receives is generated here from the workload
// seed. math/rand's seeded generator is frozen by the Go 1 promise, so one
// seed gives one byte stream on every toolchain.

// request is one generated query: the bytes that go on the wire plus the
// decoded form the in-process replay and the oracle call the library with.
type request struct {
	Path  string // /v1/select-seeds, /v1/evaluate or /v1/wins
	Body  []byte
	Score scoreSpec
	K     int     // select-seeds only
	Seeds []int32 // evaluate and wins only
}

type selectBody struct {
	Dataset string    `json:"dataset"`
	Method  string    `json:"method"`
	Score   scoreSpec `json:"score"`
	K       int       `json:"k"`
	Horizon int       `json:"horizon"`
	Target  int       `json:"target"`
	Seed    int64     `json:"seed"`
}

type evalBody struct {
	Dataset  string    `json:"dataset"`
	Score    scoreSpec `json:"score"`
	Horizon  int       `json:"horizon"`
	Target   int       `json:"target"`
	Seeds    []int32   `json:"seeds"`
	MinEpoch int64     `json:"minEpoch,omitempty"`
}

const servedDataset = "default" // ovmd's -name default

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed struct shapes are marshalled here
	}
	return b
}

func selectRequest(sc scoreSpec, k int) request {
	return request{
		Path: "/v1/select-seeds", Score: sc, K: k,
		Body: mustJSON(selectBody{servedDataset, "RS", sc, k, horizon, target, indexSeed}),
	}
}

func evalRequest(path string, sc scoreSpec, seeds []int32) request {
	return request{
		Path: path, Score: sc, Seeds: seeds,
		Body: mustJSON(evalBody{Dataset: servedDataset, Score: sc, Horizon: horizon, Target: target, Seeds: seeds}),
	}
}

// probeBody is the cheap evaluate that blocks until minEpoch is visible;
// its latency is the accepted-to-visible lag of the batch it follows.
func probeBody(minEpoch int64) []byte {
	return mustJSON(evalBody{Dataset: servedDataset, Score: scoreSpec{Name: "cumulative"}, Horizon: 1, Target: target, Seeds: []int32{0}, MinEpoch: minEpoch})
}

// setupProbe is the fixed query a set-up must answer before it counts as
// up: it touches the mapped sketch artifact and the exact evaluator. Its k
// is outside 1..50, so it is never one of a stream's keys and a stream
// never finds it cached.
func setupProbe() request { return selectRequest(scoreSpec{Name: "plurality"}, 51) }

func shuffled(rng *rand.Rand, reqs []request) []request {
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// bigColdKs are the 20 seed-set sizes of big-cold, ascending and spread
// evenly over 1..50, so every seed sees the same cost mix and only the
// order changes.
var bigColdKs = func() []int {
	ks := make([]int, 20)
	for i := range ks {
		ks[i] = 1 + (i*49+9)/19
	}
	return ks
}()

// queryStream is the key list of a reader, in the seeded order it is sent.
// Cold streams are cycled (cold-select) or sent once (big-cold); the warm
// mix is cycled.
func queryStream(kind readerKind, seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	var reqs []request
	switch kind {
	case readColdSelect:
		for _, sc := range scores {
			for k := 1; k <= 50; k++ {
				reqs = append(reqs, selectRequest(sc, k))
			}
		}
	case readBigCold:
		return bigColdStream(rng)
	case readWarmMix:
		seeds := make([]int32, 0, 10)
		seen := make(map[int32]bool)
		for len(seeds) < 10 {
			if v := int32(rng.Intn(n)); !seen[v] {
				seen[v] = true
				seeds = append(seeds, v)
			}
		}
		for _, sc := range scores {
			reqs = append(reqs,
				selectRequest(sc, 10),
				evalRequest("/v1/evaluate", sc, seeds),
				evalRequest("/v1/wins", sc, seeds))
		}
	default:
		return nil
	}
	return shuffled(rng, reqs)
}

// bigColdStream orders the 100 big-cold keys by a stratified shuffle. A
// window holds about 30 of them, and a request costs 260 to 520 ms depending
// on its score and k, so a plain shuffle makes the median depend on which
// keys the seed happened to put first. Here every 5 consecutive keys cover
// the 5 scores and, per score, every 4 consecutive picks cover the 4
// quartiles of k: wherever the window ends it has seen a balanced mix, and
// the seed still decides the order within each stratum.
func bigColdStream(rng *rand.Rand) []request {
	perScore := make([][]int, len(scores))
	for i := range perScore {
		quartiles := make([][]int, 4)
		for q := range quartiles {
			quartiles[q] = append([]int(nil), bigColdKs[q*5:q*5+5]...)
			rng.Shuffle(5, func(a, b int) { quartiles[q][a], quartiles[q][b] = quartiles[q][b], quartiles[q][a] })
		}
		for round := 0; round < 5; round++ {
			order := rng.Perm(4)
			for _, q := range order {
				perScore[i] = append(perScore[i], quartiles[q][round])
			}
		}
	}
	var reqs []request
	for j := 0; j < len(bigColdKs); j++ {
		for _, i := range rng.Perm(len(scores)) {
			reqs = append(reqs, selectRequest(scores[i], perScore[i][j]))
		}
	}
	return reqs
}

// batchGen yields the update batches of a writer one after another.
type batchGen struct {
	kind writerKind
	rng  *rand.Rand
	n    int
	i    int
	edge [2]int32 // the edge the paced writer added and has not removed yet
}

func newBatchGen(kind writerKind, seed int64, n int) *batchGen {
	// A different substream from the reader's, so adding a reader never
	// changes what a writer sends.
	return &batchGen{kind: kind, rng: rand.New(rand.NewSource(seed ^ 0x5ca1ab1e)), n: n}
}

func (g *batchGen) vecOp(kind dynamic.OpKind) dynamic.Op {
	return dynamic.Op{Kind: kind, Cand: g.rng.Intn(2), Node: int32(g.rng.Intn(g.n)), Value: g.rng.Float64()}
}

// Next returns the next batch. The paced writer sends 2 set_opinion, 1
// set_stubbornness and 1 edge op that cycles add_edge, set_weight,
// remove_edge over an edge this generator added, so no batch is rejected
// by design. The burst writer alternates one-op opinion and stubbornness
// batches.
func (g *batchGen) Next() dynamic.Batch {
	i := g.i
	g.i++
	if g.kind == writeBurst {
		if i%2 == 0 {
			return dynamic.Batch{g.vecOp(dynamic.OpSetOpinion)}
		}
		return dynamic.Batch{g.vecOp(dynamic.OpSetStubbornness)}
	}
	b := dynamic.Batch{
		g.vecOp(dynamic.OpSetOpinion),
		g.vecOp(dynamic.OpSetOpinion),
		g.vecOp(dynamic.OpSetStubbornness),
	}
	switch i % 3 {
	case 0:
		from := int32(g.rng.Intn(g.n))
		to := int32(g.rng.Intn(g.n - 1))
		if to >= from {
			to++ // never a self-loop
		}
		g.edge = [2]int32{from, to}
		b = append(b, dynamic.Op{Kind: dynamic.OpAddEdge, From: from, To: to, W: 0.1 + g.rng.Float64()})
	case 1:
		b = append(b, dynamic.Op{Kind: dynamic.OpSetWeight, From: g.edge[0], To: g.edge[1], W: 0.1 + g.rng.Float64()})
	case 2:
		b = append(b, dynamic.Op{Kind: dynamic.OpRemoveEdge, From: g.edge[0], To: g.edge[1]})
	}
	return b
}

func updateBody(b dynamic.Batch) []byte {
	return mustJSON(struct {
		Ops dynamic.Batch `json:"ops"`
	}{b})
}

// hashedBatches is how many generated batches the stream hash covers; the
// number a run sends depends on how fast the daemon accepts them.
const hashedBatches = 1000

// streamHash fingerprints everything a workload would send for a seed: the
// reader's key list in order, then the first hashedBatches of the writer,
// each the window's stream or, where the window has none, the tail's.
func streamHash(w workload, seed int64) string {
	h := sha256.New()
	for _, r := range queryStream(w.readKind(), seed, w.N) {
		h.Write([]byte(r.Path))
		h.Write(r.Body)
	}
	g := newBatchGen(w.writeKind(), seed, w.N)
	for i := 0; i < hashedBatches; i++ {
		h.Write(updateBody(g.Next()))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
