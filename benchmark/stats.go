package main

import (
	"math"
	"sort"
	"time"

	"ovm/internal/stats"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p percent of the
// samples at or below it. xs need not be sorted; an empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quiet is the latency a stream shows while the box is quiet. The sandbox
// shares its cores: other tenants take them in bursts of milliseconds to
// seconds, and a burst lands on some requests and not on others, so over a
// window the samples are a floor the daemon sets plus delays it does not.
// The lower quartile stays on that floor until three quarters of the samples
// are delayed, where the median leaves it at one half. Keys differ in cost,
// so the quartile is taken per key over its repeats (keys[i] names the key
// of xs[i]; nil means one key), and the result is the median of that over
// the keys: the typical request, timed when nothing else ran.
func quiet(xs []float64, keys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	if keys == nil {
		return percentile(xs, 25)
	}
	byKey := make(map[int][]float64)
	for i, x := range xs {
		byKey[keys[i]] = append(byKey[keys[i]], x)
	}
	floors := make([]float64, 0, len(byKey))
	for _, repeats := range byKey {
		floors = append(floors, percentile(repeats, 25))
	}
	return median(floors)
}

// beyond is how many of n samples lie above the p-th percentile under the
// nearest-rank rule. A percentile is reported as supported when at least
// ten samples lie beyond it.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

// median is the mean of the two middle samples for even n, matching
// Python's statistics.median, which the driver uses.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// does (the "exclusive" method), so the spread printed here is the number
// the driver computes. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after the clamp, as Python computes it
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 || math.IsNaN(q1) {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
