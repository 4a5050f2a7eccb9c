package obs

import (
	"sort"
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
