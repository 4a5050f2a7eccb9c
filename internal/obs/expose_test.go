package obs

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestExpositionGolden pins the Prometheus text exposition byte-for-byte
// for a small fixed registry — a counter, a counter family with one series
// per fixed label, settable and derived gauges, registered out of order —
// then labeled gauges and a histogram vector with two series (one empty
// bucket range elided is NOT allowed — every bound appears, cumulative).
func TestExpositionGolden(t *testing.T) {
	r := new(Registry)
	r.NewGaugeFunc("ovmd_uptime_seconds", "Seconds since start.", func() float64 { return 1.5 })
	r.NewCounter("ovmd_checkpoints_total", "Checkpoints.", Label{"reason", "shutdown"})
	r.NewCounter("ovmd_requests_total", "Total queries received.").Add(42)
	r.NewCounter("ovmd_checkpoints_total", "Checkpoints.", Label{"reason", "log"}).Inc()
	r.NewCounterFunc("ovmd_cache_evictions_total", "Evictions.", func() int64 { return 5 })
	r.NewGauge("ovmd_inflight", "In flight.").Add(-2)
	var buf bytes.Buffer
	e := NewExposition(&buf)
	e.Registry(r)
	e.GaugeVec("ovmd_dataset_epoch", "Current dataset epoch.", []Sample{
		{Labels: []Label{{"dataset", "default"}}, Value: 3},
		{Labels: []Label{{"dataset", `we"ird`}}, Value: 7},
	})
	vec := NewHistogramVec("ovmd_request_duration_seconds", "Query latency.", "endpoint")
	h := vec.With("select-seeds")
	h.ObserveNs(2_000)           // (1000, 2500] bucket
	h.ObserveNs(2_000)           //
	h.ObserveNs(40_000_000)      // (25ms, 50ms] bucket
	h.ObserveNs(500_000_000_000) // overflow (500s)
	e.HistogramVec(vec)
	if e.Flush() != nil {
		t.Fatal(e.Err())
	}
	got := buf.String()

	want := strings.Join([]string{
		"# HELP ovmd_cache_evictions_total Evictions.",
		"# TYPE ovmd_cache_evictions_total counter",
		"ovmd_cache_evictions_total 5",
		"# HELP ovmd_checkpoints_total Checkpoints.",
		"# TYPE ovmd_checkpoints_total counter",
		`ovmd_checkpoints_total{reason="log"} 1`,
		`ovmd_checkpoints_total{reason="shutdown"} 0`,
		"# HELP ovmd_inflight In flight.",
		"# TYPE ovmd_inflight gauge",
		"ovmd_inflight -2",
		"# HELP ovmd_requests_total Total queries received.",
		"# TYPE ovmd_requests_total counter",
		"ovmd_requests_total 42",
		"# HELP ovmd_uptime_seconds Seconds since start.",
		"# TYPE ovmd_uptime_seconds gauge",
		"ovmd_uptime_seconds 1.5",
		"# HELP ovmd_dataset_epoch Current dataset epoch.",
		"# TYPE ovmd_dataset_epoch gauge",
		`ovmd_dataset_epoch{dataset="default"} 3`,
		`ovmd_dataset_epoch{dataset="we\"ird"} 7`,
		"# HELP ovmd_request_duration_seconds Query latency.",
		"# TYPE ovmd_request_duration_seconds histogram",
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="2.5e-07"} 0`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="5e-07"} 0`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="1e-06"} 0`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="2.5e-06"} 2`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="5e-06"} 2`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="1e-05"} 2`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="2.5e-05"} 2`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="5e-05"} 2`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="0.0001"} 2`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="0.00025"} 2`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="0.0005"} 2`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="0.001"} 2`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="0.0025"} 2`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="0.005"} 2`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="0.01"} 2`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="0.025"} 2`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="0.05"} 3`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="0.1"} 3`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="0.25"} 3`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="0.5"} 3`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="1"} 3`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="2.5"} 3`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="5"} 3`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="10"} 3`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="25"} 3`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="50"} 3`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="100"} 3`,
		`ovmd_request_duration_seconds_bucket{endpoint="select-seeds",le="+Inf"} 4`,
		`ovmd_request_duration_seconds_sum{endpoint="select-seeds"} 500.040004`,
		`ovmd_request_duration_seconds_count{endpoint="select-seeds"} 4`,
		"",
	}, "\n")
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExpositionParses runs every emitted line through the format's line
// grammar — the same check the smoke test applies to a live /metrics.
func TestExpositionParses(t *testing.T) {
	var buf bytes.Buffer
	e := NewExposition(&buf)
	vec := NewHistogramVec("x_seconds", "help text with spaces", "a", "b")
	vec.With("v1", "v 2").ObserveNs(123)
	e.HistogramVec(vec)
	r := new(Registry)
	r.NewCounter("c_total", "c", Label{"k", "v 1"})
	e.Registry(r)
	if e.Flush() != nil {
		t.Fatal(e.Err())
	}
	series := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\+Inf|-?[0-9.eE+-]+)$`)
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !series.MatchString(line) {
			t.Errorf("line does not parse as a series: %q", line)
		}
	}
}
