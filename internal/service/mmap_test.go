package service_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ovm/internal/dynamic"
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
// parallelism 1, 4, and 0 — and still after each of several update batches
// has repaired the artifacts, overlays over the mapped base on one side and
// over the heap base on the other.
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

	// Apply the same mutation batches to both; answers must stay identical
	// after every one.
	batches := append([]dynamic.Batch{testBatch(t, idx)}, churnBatches(7, idx.Sys.N(), 3)...)
	for i, batch := range batches {
		for _, svc := range []*service.Service{heapSvc, mappedSvc} {
			upd, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: batch})
			if serr != nil {
				t.Fatal(serr)
			}
			if upd.Epoch != int64(i+1) {
				t.Fatalf("epoch = %d, want %d", upd.Epoch, i+1)
			}
		}
		compare(t, int64(i+1))
	}
}

// TestMappingStaysTheBase: 64 churn-shaped batches on a mapped index leave
// the mapping as every walk artifact's base — the dataset's mapped bytes
// are what they were at load — and grow its heap by exactly the overlays
// the test's own ledger accounts for.
func TestMappingStaysTheBase(t *testing.T) {
	idx, path := churnWorld(t)
	mi, err := serialize.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mi.Close() })
	if !mi.Mapped() {
		t.Skip("platform fell back to heap load; nothing is mapped")
	}
	svc := newTestService(t, mi.Index)
	n := idx.Sys.N()
	atLoad := svc.StatsSnapshot().Datasets[0]
	if atLoad.MappedBytes == 0 {
		t.Fatal("mapped dataset reports zero mapped bytes")
	}
	sys := idx.Sys
	ledgers := make([]overlayLedger, len(svc.WalkSets("world")))
	for i, b := range churnBatches(42, n, 64) {
		next, cs, err := dynamic.ApplySystem(sys, b)
		if err != nil {
			t.Fatal(err)
		}
		sys = next
		before := svc.WalkSets("world")
		if _, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
			t.Fatalf("batch %d: %v", i, serr)
		}
		for a, set := range svc.WalkSets("world") {
			ledgers[a].repair(t, before[a], set, cs.WalkMask(n, 0))
		}
	}
	var overlays int64
	for a, set := range svc.WalkSets("world") {
		total, _ := ledgers[a].weigh(set)
		overlays += total
	}
	after := svc.StatsSnapshot().Datasets[0]
	if after.Epoch != 64 {
		t.Fatalf("epoch %d after 64 batches", after.Epoch)
	}
	if after.MappedBytes != atLoad.MappedBytes {
		t.Fatalf("mapped bytes %d after 64 batches, %d at load: a repair moved the base", after.MappedBytes, atLoad.MappedBytes)
	}
	if overlays == 0 || after.HeapBytes-atLoad.HeapBytes != overlays {
		t.Fatalf("heap grew by %d bytes over 64 batches, the overlays weigh %d", after.HeapBytes-atLoad.HeapBytes, overlays)
	}
	t.Logf("64 batches: %d mapped bytes kept, overlays weigh %d bytes", after.MappedBytes, overlays)
}
