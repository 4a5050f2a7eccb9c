package obs

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

func TestCounterRegistryAndSnapshots(t *testing.T) {
	c1 := NewCounter("test_cost_alpha_total", "alpha help")
	c2 := NewCounter("test_cost_beta_total", "beta help")
	NewGaugeFunc("test_cost_gamma", "gamma help", func() float64 { return 42 })

	c1.Add(3)
	c2.Inc()
	before := CaptureCosts()
	c1.Add(5)
	delta := CaptureCosts().Delta(before)
	if delta["test_cost_alpha_total"] != 5 {
		t.Errorf("alpha delta = %d, want 5", delta["test_cost_alpha_total"])
	}
	if _, moved := delta["test_cost_beta_total"]; moved {
		t.Errorf("beta did not move but appears in the delta: %v", delta)
	}
	if c1.Load() != 8 {
		t.Errorf("counter state: load=%d", c1.Load())
	}

	fams := Families()
	if !sort.SliceIsSorted(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name }) {
		t.Error("Families() not sorted by name")
	}
	byName := make(map[string]MetricFamily, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["test_cost_alpha_total"]; f.Value != 8 || f.IsGauge || f.Help != "alpha help" {
		t.Errorf("alpha family: %+v", f)
	}
	if f := byName["test_cost_gamma"]; f.Value != 42 || !f.IsGauge {
		t.Errorf("gamma family: %+v", f)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	NewCounter("test_cost_dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	NewCounter("test_cost_dup_total", "second")
}

func TestSetCostAccounting(t *testing.T) {
	if !CostEnabled() {
		t.Fatal("cost accounting must default to enabled")
	}
	SetCostAccounting(false)
	if CostEnabled() {
		t.Error("SetCostAccounting(false) did not disable")
	}
	SetCostAccounting(true)
	if !CostEnabled() {
		t.Error("SetCostAccounting(true) did not re-enable")
	}
}

// benchCounters registers what a daemon's cost registry holds, about 60
// counters, once per test binary.
var benchCounters = sync.OnceValue(func() []*Counter {
	cs := make([]*Counter, 60)
	for i := range cs {
		cs[i] = NewCounter(fmt.Sprintf("bench_cost_%02d_total", i), "benchmark counter")
	}
	return cs
})

// BenchmarkCaptureCosts is what a computed query pays for its cost block:
// two captures and their Delta, with a handful of counters moved between.
func BenchmarkCaptureCosts(b *testing.B) {
	cs := benchCounters()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		before := CaptureCosts()
		for _, c := range cs[:5] {
			c.Inc()
		}
		if d := CaptureCosts().Delta(before); len(d) < 5 {
			b.Fatalf("delta %v, want the 5 moved counters", d)
		}
	}
}
