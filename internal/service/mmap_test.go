package service_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ovm/internal/serialize"
	"ovm/internal/service"
)

// mmapTestServices builds the heap/mapped service pair: one index file,
// loaded once with ReadIndex (heap arrays; the same parse OpenMapped runs
// where the platform cannot map) and once through the zero-copy mmap path.
func mmapTestServices(t *testing.T) (heapSvc, mappedSvc *service.Service, idx *serialize.Index) {
	t.Helper()
	_, idx = testWorld(t)
	var buf bytes.Buffer
	if err := serialize.WriteIndexV3(&buf, idx, serialize.V3Options{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.ovmidx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	heapIdx, err := serialize.ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	heapSvc = newTestService(t, heapIdx)

	mi, err := serialize.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mi.Close() })
	if !mi.Mapped() {
		t.Skip("platform fell back to heap load; nothing to compare")
	}
	mappedSvc = newTestService(t, mi.Index)
	return heapSvc, mappedSvc, idx
}

// TestMappedMatchesHeapAcrossScores is the zero-copy correctness contract:
// a service whose artifacts alias an mmap'd index file answers bit-identically
// to one loaded onto the heap, across the five voting scores and engine
// parallelism 1, 4, and 0 — and still after a dynamic update batch has
// copy-on-write repaired the mapped artifacts.
func TestMappedMatchesHeapAcrossScores(t *testing.T) {
	heapSvc, mappedSvc, idx := mmapTestServices(t)

	cases := []struct {
		name   string
		method string
		score  service.ScoreSpec
		theta  int
	}{
		{"RW/cumulative", "RW", service.ScoreSpec{Name: "cumulative"}, 0},
		{"RS/plurality", "RS", service.ScoreSpec{Name: "plurality"}, tdTheta},
		{"RS/p-approval", "RS", service.ScoreSpec{Name: "p-approval", P: 2}, tdTheta},
		{"RS/positional", "RS", service.ScoreSpec{Name: "positional", P: 2, Omega: []float64{1, 0.5}}, tdTheta},
		{"RS/copeland", "RS", service.ScoreSpec{Name: "copeland"}, tdTheta},
		{"IC/plurality", "IC", service.ScoreSpec{Name: "plurality"}, 0},
	}
	compare := func(t *testing.T, wantEpoch int64) {
		t.Helper()
		for _, tc := range cases {
			for _, par := range []int{1, 4, 0} {
				req := selectReq(tc.method, tc.score.Name, tc.theta)
				req.Score = tc.score
				req.Parallelism = par
				heapSvc.ResetCache()
				mappedSvc.ResetCache()
				a, serr := heapSvc.SelectSeeds(req)
				if serr != nil {
					t.Fatalf("%s P=%d heap: %v", tc.name, par, serr)
				}
				b, serr := mappedSvc.SelectSeeds(req)
				if serr != nil {
					t.Fatalf("%s P=%d mapped: %v", tc.name, par, serr)
				}
				if !reflect.DeepEqual(a.Seeds, b.Seeds) || a.ExactValue != b.ExactValue {
					t.Fatalf("%s P=%d: mapped answer diverged from heap:\nheap   %v (%.9f)\nmapped %v (%.9f)",
						tc.name, par, a.Seeds, a.ExactValue, b.Seeds, b.ExactValue)
				}
				if !b.FromIndex {
					t.Fatalf("%s P=%d: mapped artifact was not used", tc.name, par)
				}
				if a.Epoch != wantEpoch || b.Epoch != wantEpoch {
					t.Fatalf("%s P=%d: epochs %d/%d, want %d", tc.name, par, a.Epoch, b.Epoch, wantEpoch)
				}
			}
		}
	}

	compare(t, 0)

	// The mapped dataset must report part of its footprint as mapped bytes.
	stats := mappedSvc.StatsSnapshot()
	if len(stats.Datasets) != 1 {
		t.Fatalf("stats list %d datasets, want 1", len(stats.Datasets))
	}
	d := stats.Datasets[0]
	if d.MappedBytes == 0 {
		t.Error("mapped dataset reports zero mapped bytes")
	}
	if d.IndexBytes != d.MappedBytes+d.HeapBytes {
		t.Errorf("index bytes %d != mapped %d + heap %d", d.IndexBytes, d.MappedBytes, d.HeapBytes)
	}
	if hd := heapSvc.StatsSnapshot().Datasets[0]; hd.MappedBytes != 0 {
		t.Errorf("heap dataset reports %d mapped bytes, want 0", hd.MappedBytes)
	}

	// Apply the same mutation batch to both; repair copy-on-writes the
	// touched mapped sections to the heap, and answers must stay identical.
	batch := testBatch(t, idx)
	for _, svc := range []*service.Service{heapSvc, mappedSvc} {
		upd, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: batch})
		if serr != nil {
			t.Fatal(serr)
		}
		if upd.Epoch != 1 {
			t.Fatalf("epoch = %d, want 1", upd.Epoch)
		}
	}
	compare(t, 1)
}
