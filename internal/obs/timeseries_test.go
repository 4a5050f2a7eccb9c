package obs

import (
	"testing"
	"time"
)

// fakeSource returns a TSSource emitting one series whose value is read
// from v at sample time.
func fakeSource(name string, v *float64) TSSource {
	return func(sample func(string, float64)) { sample(name, *v) }
}

func TestTimeSeriesRingAndWindow(t *testing.T) {
	v := 0.0
	ts := NewTimeSeries(4, fakeSource("x", &v))
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 6; i++ {
		v = float64(i)
		ts.Sample(base.Add(time.Duration(i) * time.Second))
	}
	// Capacity 4, 6 samples: the ring retains samples 2..5, oldest first.
	pts := ts.Window(0, base)
	if len(pts) != 4 {
		t.Fatalf("retained %d points, want 4", len(pts))
	}
	for i, p := range pts {
		want := float64(i + 2)
		if p.Values["x"] != want {
			t.Errorf("point %d: x=%v, want %v", i, p.Values["x"], want)
		}
		if i > 0 && p.At.Before(pts[i-1].At) {
			t.Error("points not oldest-first")
		}
	}
	// A 2.5s window ending at the last sample keeps samples 3..5 → but
	// capacity already dropped 0..1, so expect the points at +3s, +4s, +5s.
	now := base.Add(5 * time.Second)
	got := ts.Window(2500*time.Millisecond, now)
	if len(got) != 3 {
		t.Fatalf("window kept %d points, want 3: %+v", len(got), got)
	}
	if got[0].Values["x"] != 3 {
		t.Errorf("window starts at x=%v, want 3", got[0].Values["x"])
	}
	// A window in the future keeps nothing.
	if far := ts.Window(time.Second, now.Add(time.Hour)); len(far) != 0 {
		t.Errorf("stale window kept %d points", len(far))
	}
}

func TestTimeSeriesStartStop(t *testing.T) {
	v := 1.0
	ts := NewTimeSeries(8, fakeSource("y", &v))
	ts.Start(time.Hour) // immediate sample; the ticker never fires in-test
	ts.Stop()
	ts.Stop() // idempotent
	pts := ts.Window(0, time.Now())
	if len(pts) != 1 || pts[0].Values["y"] != 1 {
		t.Fatalf("Start must take one immediate sample: %+v", pts)
	}
	// Stop without Start is a no-op.
	NewTimeSeries(1).Stop()
}

func TestRegistrySource(t *testing.T) {
	c := NewCounter("test_ts_registry_total", "help")
	c.Add(7)
	vals := make(map[string]float64)
	RegistrySource(Default())(func(name string, v float64) { vals[name] = v })
	if vals["test_ts_registry_total"] != 7 {
		t.Errorf("registry source sampled %v, want 7", vals["test_ts_registry_total"])
	}
}
