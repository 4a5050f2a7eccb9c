package service

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"

	"ovm/internal/obs"
)

// registerMemoryGauges declares the gauges that split the process's memory
// by kind. The resident set is read from /proc/self/status, so it is
// exported on Linux only: RssAnon (the Go heap, stacks and runtime) and
// RssFile (mapped files: the index and the binary). The mapped index is
// clean file pages, which the passes over it release behind their cursors
// (mmapio.Region.Release). The pages stay in the page cache, so mincore,
// which reports page-cache residency, cannot see a release; the process's
// own RssFile can. The Go heap's live bytes (marked by the last GC) and
// the goal the next GC runs at come from runtime/metrics on every OS.
func registerMemoryGauges(r *obs.Registry) {
	if runtime.GOOS == "linux" {
		for _, kind := range []struct{ label, field string }{{"anon", "RssAnon:"}, {"file", "RssFile:"}} {
			r.NewGaugeFunc("ovmd_process_resident_bytes",
				"Resident set of the process by kind, from /proc/self/status (Linux only): anon is RssAnon (Go heap, stacks, runtime), file is RssFile (mapped files: the index and the binary).",
				func() float64 { return float64(statusBytes(kind.field)) }, obs.Label{Name: "kind", Value: kind.label})
		}
	}
	for _, kind := range []struct{ label, metric string }{{"live", "/gc/heap/live:bytes"}, {"goal", "/gc/heap/goal:bytes"}} {
		r.NewGaugeFunc("ovmd_go_heap_bytes",
			"Go heap bytes from runtime/metrics: live is what the last GC marked reachable, goal is the heap size the next GC is due at.",
			func() float64 {
				s := []metrics.Sample{{Name: kind.metric}}
				metrics.Read(s)
				if s[0].Value.Kind() != metrics.KindUint64 {
					return 0
				}
				return float64(s[0].Value.Uint64())
			}, obs.Label{Name: "kind", Value: kind.label})
	}
}

// statusBytes reads one "<field> <n> kB" line of /proc/self/status, in
// bytes (0 if it is missing).
func statusBytes(field string) int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		rest, ok := bytes.CutPrefix(sc.Bytes(), []byte(field))
		if !ok {
			continue
		}
		kb, err := strconv.ParseInt(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
