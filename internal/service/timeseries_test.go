package service_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ovm/internal/obs"
	"ovm/internal/service"
)

// TestTimeSeriesEndpoint drives traffic, takes explicit samples (no
// background sampler in tests), and checks /debug/timeseries serves the
// ring with both the service counters and the registry cost counters,
// and that the window parameter filters and validates.
func TestTimeSeriesEndpoint(t *testing.T) {
	_, idx := testWorld(t)
	svc := service.New(service.Config{})
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	svc.TimeSeries().Sample(time.Now().Add(-time.Hour)) // stale point, cut by the window
	postJSON(t, ts.URL+"/v1/select-seeds", selectReq("RS", "plurality", tdTheta)).Body.Close()
	svc.TimeSeries().Sample(time.Now())

	get := func(url string) []obs.TSPoint {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", url, resp.StatusCode)
		}
		var out struct {
			Points []obs.TSPoint `json:"points"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Points
	}

	all := get(ts.URL + "/debug/timeseries")
	if len(all) != 2 {
		t.Fatalf("retained %d points, want 2", len(all))
	}
	recent := get(ts.URL + "/debug/timeseries?window=10m")
	if len(recent) != 1 {
		t.Fatalf("10m window kept %d points, want 1", len(recent))
	}
	last := recent[0].Values
	if last["ovmd_requests_total"] != 1 {
		t.Errorf("sampled ovmd_requests_total = %v, want 1", last["ovmd_requests_total"])
	}
	if _, ok := last["ovm_walks_truncated_total"]; !ok {
		t.Error("sample missing the registry cost counters")
	}

	for _, window := range []string{"bogus", "-5m"} {
		resp, err := http.Get(ts.URL + "/debug/timeseries?window=" + window)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("window %s returned %d, want 400", window, resp.StatusCode)
		}
	}
}

// TestTimeSeriesSamplerLifecycle: a positive interval starts the
// background sampler (one immediate sample), and Close stops it.
func TestTimeSeriesSamplerLifecycle(t *testing.T) {
	svc := service.New(service.Config{TimeSeriesInterval: time.Hour, TimeSeriesCapacity: 16})
	pts := svc.TimeSeries().Window(0, time.Now())
	if len(pts) != 1 {
		t.Fatalf("sampler took %d immediate samples, want 1", len(pts))
	}
	svc.Close()
	svc.Close() // idempotent
}
