package obs_test

// The exposition-completeness guard: every counter/gauge registered in
// the obs cost registry — by any package in the module — must appear in
// the service's /metrics output. Importing internal/service links in the
// full compute stack (engine, walks, postings, im, dynamic, serialize,
// mmapio), so their package-level registrations are all visible here,
// and WriteMetrics appending obs.Families() means a newly added counter
// can never silently miss the exposition. This is an external test
// package precisely so it may import the service without a cycle.

import (
	"bytes"
	"strings"
	"testing"

	"ovm/internal/obs"
	"ovm/internal/service"
)

func TestExpositionCompleteness(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	var buf bytes.Buffer
	if err := svc.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	fams := obs.Families()
	if len(fams) == 0 {
		t.Fatal("no registered metric families — the cost registry did not link in")
	}
	for _, f := range fams {
		if !strings.Contains(out, "\n"+f.Key+" ") && !strings.HasPrefix(out, f.Key+" ") {
			t.Errorf("registered series %q missing from /metrics output", f.Key)
		}
		if !strings.Contains(out, "# HELP "+f.Name+" ") {
			t.Errorf("registered metric %q has no HELP line", f.Name)
		}
	}

	// Spot-check that each instrumented layer actually registered its
	// counters (a rename here is a /metrics contract change).
	for _, name := range []string{
		"ovm_engine_shards_total",
		"ovm_engine_pool_utilization",
		"ovm_postings_entries_total",
		"ovm_postings_blocks_total",
		"ovm_walks_truncated_total",
		"ovm_walks_gain_cache_hits_total",
		"ovm_repair_copy_bytes_total",
		"ovm_repair_overlay_folds_total",
		"ovm_repair_invalidated_walk_pct",
		"ovm_rr_sets_scanned_total",
		"ovm_dynamic_batches_applied_total",
		"ovm_serialize_zerocopy_bytes_total",
		"ovm_mmap_regions_mapped_total",
		"ovm_opinion_diffusions_total",
		"ovm_opinion_edge_steps_total",
		"ovm_opinion_frontier_nodes_total",
		"ovm_opinion_dense_fallbacks_total",
		"ovm_core_competitor_memo_hits_total",
		"ovm_core_competitor_memo_misses_total",
		"ovm_core_competitor_memo_carried_total",
		"ovm_greedy_rounds_run_total",
		"ovm_greedy_rounds_reused_total",
		"ovm_greedy_prefix_slices_total",
		"ovm_greedy_prefix_continues_total",
		"ovm_greedy_prefix_value_hits_total",
		"ovm_greedy_prefix_value_misses_total",
	} {
		found := false
		for _, f := range fams {
			if f.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("expected registered metric %q is absent from the registry", name)
		}
	}
}
