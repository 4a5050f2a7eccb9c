package im

import "ovm/internal/obs"

// RR-set cost accounting: sampling volume (sets drawn, cursor
// advances) and coverage work (sets visited during greedy cover). All
// counts are accumulated locally and flushed with one atomic add per Add /
// GreedyCover call — the samplers' sharded inner loops are untouched.
var (
	rrSetsSampled = obs.NewCounter("ovm_rr_sets_sampled_total",
		"Reverse-reachable sets sampled (initial generation and top-ups)")
	rrDrawAdvances = obs.NewCounter("ovm_rr_draw_advances_total",
		"Advances of the global RR draw cursor (substream indices consumed)")
	rrSetsScanned = obs.NewCounter("ovm_rr_sets_scanned_total",
		"RR sets visited by greedy-cover covering-set scans")
)
