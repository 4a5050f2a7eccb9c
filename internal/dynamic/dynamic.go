// Package dynamic is the live-update subsystem: a mutation schema for
// evolving opinion systems (edge inserts/deletes/re-weights, drifting
// internal opinions and stubbornness) plus the delta-apply path that turns
// a batch of mutations into a new immutable system and a ChangeSet naming
// exactly which nodes' sampled artifacts could have diverged.
//
// The contract that makes updates cheap to serve: applying a batch and then
// incrementally repairing precomputed artifacts (walks.Draw.Repair) yields
// artifacts byte-identical to a from-scratch rebuild on the mutated system
// at the same seed. Batches therefore compose: replaying a persisted update
// log reproduces the exact serving state the daemon was in when it wrote
// the log, which is how a restarted ovmd resumes at the same epoch.
package dynamic

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"ovm/internal/graph"
	"ovm/internal/obs"
	"ovm/internal/opinion"
)

// Update cost accounting: mutation volume applied. The per-artifact
// repair cost it triggers is accounted where it happens (the walks
// repair counters); these give the numerator to amortize it over.
var (
	batchesApplied = obs.NewCounter("ovm_dynamic_batches_applied_total",
		"Mutation batches applied to opinion systems")
	opsApplied = obs.NewCounter("ovm_dynamic_ops_applied_total",
		"Individual mutation ops applied across all batches")
	nodesTouched = obs.NewCounter("ovm_dynamic_nodes_touched_total",
		"Distinct nodes whose artifacts a batch could have invalidated")
)

// OpKind names one mutation type; it is the "op" field of the JSON wire
// form.
type OpKind string

// The mutation vocabulary.
const (
	// OpAddEdge inserts edge from → to with raw weight w (summing with the
	// current weight when the edge exists); the destination's in-weights
	// are renormalized.
	OpAddEdge OpKind = "add_edge"
	// OpRemoveEdge deletes edge from → to; removing a missing edge fails
	// the whole batch. A destination left without in-edges receives a
	// weight-1 self-loop.
	OpRemoveEdge OpKind = "remove_edge"
	// OpSetWeight sets edge from → to's raw weight to w, inserting the
	// edge when absent; the destination's in-weights are renormalized.
	OpSetWeight OpKind = "set_weight"
	// OpSetOpinion sets candidate's internal opinion b^(0) at node to
	// value (in [0,1]). Opinions are read live at query time, so no sampled
	// artifact is invalidated.
	OpSetOpinion OpKind = "set_opinion"
	// OpSetStubbornness sets candidate's stubbornness d at node to value
	// (in [0,1]); walks through the node for that candidate are
	// invalidated.
	OpSetStubbornness OpKind = "set_stubbornness"
)

// Op is one mutation. Edge ops use From/To/W; opinion and stubbornness ops
// use Cand/Node/Value.
type Op struct {
	Kind  OpKind  `json:"op"`
	From  int32   `json:"from,omitempty"`
	To    int32   `json:"to,omitempty"`
	W     float64 `json:"w,omitempty"`
	Cand  int     `json:"candidate,omitempty"`
	Node  int32   `json:"node,omitempty"`
	Value float64 `json:"value,omitempty"`
}

// Batch is one atomic group of mutations: it is validated as a whole,
// applied as a whole (edge re-normalization happens once per touched
// destination, after all of the batch's ops), and bumps the dataset epoch
// by exactly one.
type Batch []Op

// Validate checks every op against a system shape with n nodes and r
// candidates. It catches everything checkable without graph state; stateful
// failures (removing a missing edge) surface when the batch is applied.
func (b Batch) Validate(n, r int) error {
	if len(b) == 0 {
		return fmt.Errorf("dynamic: empty update batch")
	}
	for i, op := range b {
		switch op.Kind {
		case OpAddEdge, OpSetWeight:
			if err := b.validateEdge(i, op, n); err != nil {
				return err
			}
			if math.IsNaN(op.W) || math.IsInf(op.W, 0) || op.W <= 0 {
				return fmt.Errorf("dynamic: op %d (%s) weight %v must be positive and finite", i, op.Kind, op.W)
			}
		case OpRemoveEdge:
			if err := b.validateEdge(i, op, n); err != nil {
				return err
			}
		case OpSetOpinion, OpSetStubbornness:
			if op.Cand < 0 || op.Cand >= r {
				return fmt.Errorf("dynamic: op %d (%s) candidate %d out of range [0,%d)", i, op.Kind, op.Cand, r)
			}
			if op.Node < 0 || int(op.Node) >= n {
				return fmt.Errorf("dynamic: op %d (%s) node %d out of range [0,%d)", i, op.Kind, op.Node, n)
			}
			if math.IsNaN(op.Value) || op.Value < 0 || op.Value > 1 {
				return fmt.Errorf("dynamic: op %d (%s) value %v outside [0,1]", i, op.Kind, op.Value)
			}
		default:
			return fmt.Errorf("dynamic: op %d has unknown kind %q", i, op.Kind)
		}
	}
	return nil
}

func (b Batch) validateEdge(i int, op Op, n int) error {
	if op.From < 0 || int(op.From) >= n || op.To < 0 || int(op.To) >= n {
		return fmt.Errorf("dynamic: op %d (%s) edge (%d,%d) out of range [0,%d)", i, op.Kind, op.From, op.To, n)
	}
	return nil
}

// ChangeSet reports which nodes a batch touched, per invalidation domain.
type ChangeSet struct {
	// EdgeTouched lists (sorted) the destinations whose in-neighborhoods
	// changed; it invalidates walks for every candidate, since all
	// candidates share one graph.
	EdgeTouched []int32
	// StubTouched lists, per candidate, the (sorted, unique) nodes whose
	// stubbornness changed; it invalidates walks generated for that
	// candidate only.
	StubTouched map[int][]int32
	// OpinionTouched lists, per candidate, the nodes whose internal
	// opinion changed. Opinions never invalidate sampled artifacts, but
	// they do change query answers, so the set matters for cache epochs.
	OpinionTouched map[int][]int32
}

// NumTouched counts the distinct nodes named anywhere in the change set.
func (cs *ChangeSet) NumTouched() int {
	seen := make(map[int32]bool)
	for _, v := range cs.EdgeTouched {
		seen[v] = true
	}
	for _, vs := range cs.StubTouched {
		for _, v := range vs {
			seen[v] = true
		}
	}
	for _, vs := range cs.OpinionTouched {
		for _, v := range vs {
			seen[v] = true
		}
	}
	return len(seen)
}

// WalkMask renders the walk-invalidation mask for one candidate's walk
// artifacts: edge-touched nodes plus that candidate's stub-touched nodes.
func (cs *ChangeSet) WalkMask(n, cand int) []bool {
	mask := make([]bool, n)
	for _, v := range cs.EdgeTouched {
		mask[v] = true
	}
	for _, v := range cs.StubTouched[cand] {
		mask[v] = true
	}
	return mask
}

// ApplySystem applies one batch to a system and returns the mutated system
// plus the change set. The input system is not modified: the new system
// shares the untouched per-candidate vectors and (absent edge ops) the
// graph itself. All candidates must share one graph — the invariant every
// dataset loader in this repository maintains.
func ApplySystem(sys *opinion.System, b Batch) (*opinion.System, *ChangeSet, error) {
	n, r := sys.N(), sys.R()
	if err := b.Validate(n, r); err != nil {
		return nil, nil, err
	}
	g := sys.Candidate(0).G
	for q := 1; q < r; q++ {
		if sys.Candidate(q).G != g {
			return nil, nil, fmt.Errorf("dynamic: candidates 0 and %d do not share a graph; cannot apply edge-consistent updates", q)
		}
	}

	var deltas []graph.Delta
	type vecEdit struct {
		node  int32
		value float64
	}
	stubEdits := make(map[int][]vecEdit)
	opEdits := make(map[int][]vecEdit)
	for _, op := range b {
		switch op.Kind {
		case OpAddEdge:
			deltas = append(deltas, graph.Delta{Op: graph.DeltaAdd, From: op.From, To: op.To, W: op.W})
		case OpSetWeight:
			deltas = append(deltas, graph.Delta{Op: graph.DeltaSet, From: op.From, To: op.To, W: op.W})
		case OpRemoveEdge:
			deltas = append(deltas, graph.Delta{Op: graph.DeltaRemove, From: op.From, To: op.To})
		case OpSetOpinion:
			opEdits[op.Cand] = append(opEdits[op.Cand], vecEdit{op.Node, op.Value})
		case OpSetStubbornness:
			stubEdits[op.Cand] = append(stubEdits[op.Cand], vecEdit{op.Node, op.Value})
		}
	}

	cs := &ChangeSet{StubTouched: map[int][]int32{}, OpinionTouched: map[int][]int32{}}
	newG := g
	if len(deltas) > 0 {
		var err error
		newG, cs.EdgeTouched, err = g.ApplyDeltas(deltas)
		if err != nil {
			return nil, nil, err
		}
	}
	touchedNodes := func(edits []vecEdit) []int32 {
		uniq := make(map[int32]bool, len(edits))
		for _, e := range edits {
			uniq[e.node] = true
		}
		nodes := make([]int32, 0, len(uniq))
		for v := range uniq {
			nodes = append(nodes, v)
		}
		slices.Sort(nodes)
		return nodes
	}
	applyEdits := func(vec []float64, edits []vecEdit) []float64 {
		out := append([]float64(nil), vec...)
		for _, e := range edits {
			out[e.node] = e.value
		}
		return out
	}

	cands := make([]*opinion.Candidate, r)
	for q := 0; q < r; q++ {
		c := sys.Candidate(q)
		nc := &opinion.Candidate{Name: c.Name, G: newG, Init: c.Init, Stub: c.Stub}
		if edits := opEdits[q]; len(edits) > 0 {
			nc.Init = applyEdits(c.Init, edits)
			cs.OpinionTouched[q] = touchedNodes(edits)
		}
		if edits := stubEdits[q]; len(edits) > 0 {
			nc.Stub = applyEdits(c.Stub, edits)
			cs.StubTouched[q] = touchedNodes(edits)
		}
		cands[q] = nc
	}
	newSys, err := opinion.NewSystem(cands)
	if err != nil {
		return nil, nil, err
	}
	if obs.CostEnabled() {
		batchesApplied.Inc()
		opsApplied.Add(int64(len(b)))
		nodesTouched.Add(int64(cs.NumTouched()))
	}
	return newSys, cs, nil
}

// ReplaySystem applies a sequence of batches in order — the offline form of
// an update log — and returns the final system plus the total number of
// distinct nodes touched across all batches.
func ReplaySystem(sys *opinion.System, batches []Batch) (*opinion.System, int, error) {
	touched := make(map[int32]bool)
	for i, b := range batches {
		next, cs, err := ApplySystem(sys, b)
		if err != nil {
			return nil, 0, fmt.Errorf("dynamic: batch %d: %w", i, err)
		}
		for _, v := range cs.EdgeTouched {
			touched[v] = true
		}
		for _, vs := range cs.StubTouched {
			for _, v := range vs {
				touched[v] = true
			}
		}
		for _, vs := range cs.OpinionTouched {
			for _, v := range vs {
				touched[v] = true
			}
		}
		sys = next
	}
	return sys, len(touched), nil
}

// ReadBatches parses a JSONL update stream: every non-empty, non-comment
// ('#') line is one batch, written either as a JSON array of ops or as a
// single op object. Line-level batching matters numerically: each batch
// renormalizes its touched columns once, so two ops on one line compose
// differently from the same ops on two lines.
func ReadBatches(r io.Reader) ([]Batch, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var batches []Batch
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var b Batch
		if line[0] == '[' {
			if err := strictUnmarshal(line, &b); err != nil {
				return nil, fmt.Errorf("dynamic: line %d: %w", lineNo, err)
			}
		} else {
			var op Op
			if err := strictUnmarshal(line, &op); err != nil {
				return nil, fmt.Errorf("dynamic: line %d: %w", lineNo, err)
			}
			b = Batch{op}
		}
		if len(b) == 0 {
			return nil, fmt.Errorf("dynamic: line %d: empty batch", lineNo)
		}
		batches = append(batches, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return batches, nil
}

func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing content after JSON value")
	}
	return nil
}
