package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// metricsSnap is one reading of the daemon's /metrics exposition: series
// name with its label set, exactly as printed, to value. Reading the
// exposition the daemon already serves is not tracing inside the program.
type metricsSnap map[string]float64

func scrape(client *http.Client, base string) (metricsSnap, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	snap := make(metricsSnap)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad /metrics line %q: %v", line, err)
		}
		snap[line[:i]] = v
	}
	return snap, sc.Err()
}

// delta is after minus before for one exact series.
func (after metricsSnap) delta(before metricsSnap, series string) float64 {
	return after[series] - before[series]
}

// sumDelta adds the deltas of every series of a family whose label set
// does not contain except.
func (after metricsSnap) sumDelta(before metricsSnap, family, except string) float64 {
	total := 0.0
	for name, v := range after {
		if strings.HasPrefix(name, family+"{") && !strings.Contains(name, except) {
			total += v - before[name]
		}
	}
	return total
}

// stageMean is the mean duration in seconds of one stage of
// ovmd_stage_duration_seconds over the interval, and its sample count.
func (after metricsSnap) stageMean(before metricsSnap, stage string) (mean float64, count float64) {
	label := `{stage="` + stage + `"}`
	count = after.delta(before, "ovmd_stage_duration_seconds_count"+label)
	if count == 0 {
		return 0, 0
	}
	return after.delta(before, "ovmd_stage_duration_seconds_sum"+label) / count, count
}
