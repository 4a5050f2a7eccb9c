package experiments

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"ovm/internal/datasets"
	"ovm/internal/methods"
	"ovm/internal/voting"
)

func init() {
	register("parallel-scaling", ParallelScaling)
}

// ParallelScaling measures how the three proposed methods scale with the
// engine worker count on one synthetic graph (beyond-paper: the paper's
// implementation is single-threaded). For each of DM/RW/RS it runs the
// same cumulative-score instance at Parallelism 1, 2, 4, and GOMAXPROCS,
// reporting wall time and speedup versus 1 worker — and it *verifies* the
// engine's determinism contract by failing if any worker count returns a
// different seed set.
//
// Speedup requires physical cores: on a single-CPU host every column
// should sit near 1.0×, and the determinism check is the interesting part.
func ParallelScaling(w io.Writer, p Params) error {
	p = p.withDefaults()
	header(w, "Parallel scaling: wall time vs engine worker count (twitter-distancing-like)")
	n := p.size(12000, 400)
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: n, Seed: p.Seed})
	if err != nil {
		return err
	}
	k := p.size(20, 3)
	horizon := horizonFor(p)
	prob := defaultProblem(d, horizon, k, voting.Cumulative{})
	fmt.Fprintf(w, "n=%d k=%d t=%d gomaxprocs=%d\n", d.Sys.N(), k, prob.Horizon, runtime.GOMAXPROCS(0))

	workerSweep := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		workerSweep = append(workerSweep, g)
	}
	run := func(method string, par int) ([]int32, float64, error) {
		opts := methods.Options{Seed: p.Seed, Parallelism: par}
		opts.RW.MaxWalksPerNode = 300
		opts.RS.MaxTheta = 1 << 18
		start := time.Now()
		seeds, _, err := methods.Select(method, prob, opts)
		return seeds, time.Since(start).Seconds(), err
	}

	fmt.Fprintf(w, "%-6s", "method")
	for _, par := range workerSweep {
		fmt.Fprintf(w, " %9s %8s", fmt.Sprintf("P=%d t(s)", par), "speedup")
	}
	fmt.Fprintln(w, "  deterministic")
	for _, method := range methods.Proposed {
		var baseSeeds []int32
		var baseTime float64
		identical := true
		fmt.Fprintf(w, "%-6s", method)
		for i, par := range workerSweep {
			seeds, secs, err := run(method, par)
			if err != nil {
				return fmt.Errorf("%s at parallelism %d: %w", method, par, err)
			}
			if i == 0 {
				baseSeeds, baseTime = seeds, secs
			} else if !slices.Equal(baseSeeds, seeds) {
				identical = false
			}
			fmt.Fprintf(w, " %9.3f %7.2fx", secs, baseTime/secs)
		}
		fmt.Fprintf(w, "  %v\n", identical)
		if !identical {
			return fmt.Errorf("%s: seed sets differ across Parallelism values — determinism contract broken", method)
		}
	}
	return nil
}
