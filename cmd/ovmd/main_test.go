package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"

	"ovm/internal/service"
)

// TestNewLogger: -log-level drops lines below it, -log-format text
// writes key=value lines, and -log-format json writes one object per line
// with string time, level and msg.
func TestNewLogger(t *testing.T) {
	logTwo := func(format string) []string {
		var buf bytes.Buffer
		logger := newLogger(&buf, slog.LevelInfo, format)
		logger.Debug("dropped", "k", 1)
		logger.Info("kept", "k", 2)
		logger.Warn("also kept", "err", "boom")
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) != 2 || strings.Contains(buf.String(), "dropped") {
			t.Fatalf("want the info and warn lines only, got:\n%s", buf.String())
		}
		return lines
	}
	t.Run("text", func(t *testing.T) {
		lines := logTwo("text")
		if !strings.HasPrefix(lines[0], "time=") || !strings.HasSuffix(lines[0], ` level=INFO msg=kept k=2`) {
			t.Errorf("info line: %s", lines[0])
		}
		if !strings.HasSuffix(lines[1], ` level=WARN msg="also kept" err=boom`) {
			t.Errorf("warn line: %s", lines[1])
		}
	})
	t.Run("json", func(t *testing.T) {
		lines := logTwo("json")
		for i, want := range []struct{ level, msg string }{{"INFO", "kept"}, {"WARN", "also kept"}} {
			var m map[string]any
			if err := json.Unmarshal([]byte(lines[i]), &m); err != nil {
				t.Fatalf("line %d is not JSON: %v\n%s", i, err, lines[i])
			}
			if ts, ok := m["time"].(string); !ok || ts == "" {
				t.Errorf("line %d: time = %v", i, m["time"])
			}
			if m["level"] != want.level || m["msg"] != want.msg {
				t.Errorf("line %d: level=%v msg=%v, want %s %q", i, m["level"], m["msg"], want.level, want.msg)
			}
		}
	})
}

// TestServeOptsConfig: the flags that read 0 as "off" map it to Config's
// -1 (so -cache 0 serves no response cache, not the default 1024), and
// every other value passes through.
func TestServeOptsConfig(t *testing.T) {
	for _, tc := range []struct {
		cache, slowLog         int
		wantCache, wantSlowLog int
	}{
		{cache: 1024, slowLog: 32, wantCache: 1024, wantSlowLog: 32},
		{cache: 0, slowLog: 32, wantCache: -1, wantSlowLog: 32},
		{cache: -1, slowLog: 0, wantCache: -1, wantSlowLog: -1},
		{cache: 7, slowLog: 0, wantCache: 7, wantSlowLog: -1},
	} {
		cfg := serveOpts{cache: tc.cache, slowLog: tc.slowLog, maxInflight: 3}.config()
		if cfg.CacheSize != tc.wantCache || cfg.SlowQueryLog != tc.wantSlowLog {
			t.Errorf("cache %d slow-log %d: Config{CacheSize: %d, SlowQueryLog: %d}, want %d, %d",
				tc.cache, tc.slowLog, cfg.CacheSize, cfg.SlowQueryLog, tc.wantCache, tc.wantSlowLog)
		}
		if cfg.MaxInflight != 3 {
			t.Errorf("MaxInflight = %d, want 3", cfg.MaxInflight)
		}
		svc := service.New(cfg)
		if got := svc.StatsSnapshot().CacheCapacity; got != tc.wantCache {
			t.Errorf("-cache %d: /stats cacheCapacity = %d, want %d", tc.cache, got, tc.wantCache)
		}
		svc.Close()
	}
}
