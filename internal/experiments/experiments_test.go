package experiments_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"ovm/internal/experiments"
)

// TestAllExperimentsQuick smoke-tests every registered experiment at Quick
// scale: each must run to completion and produce non-trivial output.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range experiments.Order {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := experiments.Registry[id](&buf, experiments.Params{Quick: true, Seed: 42}); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if buf.Len() < 40 {
				t.Errorf("%s: suspiciously short output: %q", id, buf.String())
			}
		})
	}
}

// TestTable1IsSelfVerifying confirms table1 returns its verification error
// channel (it asserts the paper's exact values internally).
func TestTable1IsSelfVerifying(t *testing.T) {
	var buf bytes.Buffer
	if err := experiments.Table1(&buf, experiments.Params{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "all cells match the paper exactly") {
		t.Error("table1 did not report a full match")
	}
}

// TestRegistryComplete: the registry runs exactly the paper's artifacts,
// the ablations and the worker sweep, in this order.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig2", "fig3", "table3", "table4",
		"fig6", "fig7", "fig8", "fig9", "fig10",
		"table6", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19",
		"ablation-celf", "ablation-truncation", "ablation-sketch-shape",
		"parallel-scaling",
	}
	if !slices.Equal(experiments.Order, want) {
		t.Errorf("Order = %q, want %q", experiments.Order, want)
	}
	for _, id := range want {
		if experiments.Registry[id] == nil {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(experiments.Registry) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(experiments.Registry), len(want))
	}
}
