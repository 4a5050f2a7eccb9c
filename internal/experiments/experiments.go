// Package experiments regenerates every table and figure of the paper's
// evaluation section (§VIII and the appendices) against the synthetic
// dataset stand-ins, at laptop-friendly scales. Each experiment is a named
// Runner registered in Registry; cmd/ovmbench exposes them on the command
// line and TestAllExperimentsQuick runs every one at Quick scale.
//
// Absolute numbers differ from the paper (different hardware, synthetic
// data, reduced scale); the reproduced artifact is the *shape*: which
// method wins, how scores grow with k/t/θ/ρ/ε, and where the trade-offs
// sit. EXPERIMENTS.md records paper-vs-measured notes per experiment.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"ovm/internal/core"
	"ovm/internal/datasets"
	"ovm/internal/methods"
	"ovm/internal/voting"
)

// Params sizes an experiment run.
type Params struct {
	// Quick shrinks everything to smoke-test size (CI/unit tests).
	Quick bool
	// Scale multiplies default node counts (default 1.0). Ignored in Quick
	// mode.
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Parallelism caps the engine worker pool in every method's hot path
	// (0 = GOMAXPROCS, 1 = serial). Results are identical across values;
	// only wall times change.
	Parallelism int
}

func (p Params) withDefaults() Params {
	if p.Scale == 0 {
		p.Scale = 1
	}
	return p
}

// size picks a node count: def·Scale normally, quick in Quick mode.
func (p Params) size(def, quick int) int {
	if p.Quick {
		return quick
	}
	n := int(float64(def) * p.Scale)
	if n < quick {
		n = quick
	}
	return n
}

// pick returns full in normal mode and quick in Quick mode.
func pickInts(p Params, full, quick []int) []int {
	if p.Quick {
		return quick
	}
	return full
}

// Runner is an experiment entry point.
type Runner func(w io.Writer, p Params) error

// Registry maps experiment ids (table/figure numbers) to runners.
var Registry = map[string]Runner{}

// Order lists experiment ids in the paper's order.
var Order []string

func register(id string, r Runner) {
	Registry[id] = r
	Order = append(Order, id)
}

func init() {
	register("table1", Table1)
	register("fig2", Fig2)
	register("fig3", Fig3)
	register("table3", Table3)
	register("table4", Table4CaseStudy)
	register("fig6", Fig6)
	register("fig7", Fig7)
	register("fig8", Fig8)
	register("fig9", Fig9)
	register("fig10", Fig10)
	register("table6", Table6)
	register("fig11", Fig11)
	register("fig12", Fig12)
	register("fig13", Fig13)
	register("fig14", Fig14)
	register("fig15", Fig15)
	register("fig16", Fig16)
	register("fig17", Fig17)
	register("fig18", Fig18)
	register("fig19", Fig19)
	register("ablation-celf", AblationCELF)
	register("ablation-truncation", AblationTruncation)
	register("ablation-sketch-shape", AblationSketchShape)
}

// MethodResult is one (method, k) measurement.
type MethodResult struct {
	Method  string
	Seeds   []int32
	Exact   float64 // exact score of the seed set
	Seconds float64 // seed-selection wall time
}

// runMethod executes one seed-selection method on the problem and
// evaluates the returned seeds exactly.
func runMethod(name string, p *core.Problem, seed int64, parallelism int) (*MethodResult, error) {
	opts := methods.Options{Seed: seed, Parallelism: parallelism}
	opts.RW.MaxWalksPerNode = 400
	// InitialTheta starts the §VI-E doubling search high enough that
	// rank-based scores do not declare convergence prematurely on the
	// scaled-down datasets (the paper's per-dataset θ* are 2^15–2^19).
	opts.RS.InitialTheta, opts.RS.MaxTheta, opts.RS.ConvergeTol = 1<<13, 1<<18, 0.005
	opts.Baseline.IMM.MaxSets = 1 << 18
	start := time.Now()
	seeds, _, err := methods.Select(name, p, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	elapsed := time.Since(start).Seconds()
	exact, err := core.EvaluateExact(p.Sys, p.Target, p.Horizon, p.Score, seeds, parallelism)
	if err != nil {
		return nil, err
	}
	return &MethodResult{Method: name, Seeds: seeds, Exact: exact, Seconds: elapsed}, nil
}

// winSelector maps a proposed-method name onto a core.SeedSelector for the
// FJ-Vote-Win search (Table VI).
func winSelector(method string, p *core.Problem, seed int64, parallelism int) (core.SeedSelector, error) {
	opts := methods.Options{Seed: seed, Parallelism: parallelism}
	opts.RW.MaxWalksPerNode = 200
	opts.RS.MaxTheta = 1 << 17
	return methods.Selector(method, *p, opts)
}

// defaultProblem builds a problem on a dataset's default target.
func defaultProblem(d *datasets.Dataset, horizon, k int, score voting.Score) *core.Problem {
	return &core.Problem{Sys: d.Sys, Target: d.DefaultTarget, Horizon: horizon, K: k, Score: score}
}

// overlap returns |a ∩ b| / |a| as a percentage (a, b same length).
func overlap(a, b []int32) float64 {
	if len(a) == 0 {
		return 0
	}
	set := make(map[int32]bool, len(b))
	for _, v := range b {
		set[v] = true
	}
	common := 0
	for _, v := range a {
		if set[v] {
			common++
		}
	}
	return 100 * float64(common) / float64(len(a))
}

// heapAlloc reports current live heap bytes after a GC cycle.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// header prints an experiment banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []int32) []int32 {
	out := append([]int32(nil), xs...)
	slices.Sort(out)
	return out
}
