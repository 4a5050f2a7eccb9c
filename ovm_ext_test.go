package ovm_test

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ovm"
	"ovm/internal/serialize"
)

func TestFacadeBorda(t *testing.T) {
	sys := paperSystem(t)
	borda := ovm.Borda(2)
	prob := &ovm.Problem{Sys: sys, Target: 0, Horizon: 1, K: 1, Score: borda}
	sel, err := ovm.SelectSeeds(prob, ovm.MethodDM, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With r = 2, Borda == plurality: the optimum is user 3 with score 4.
	if sel.ExactValue != 4 {
		t.Errorf("Borda exact value = %v, want 4", sel.ExactValue)
	}
}

// TestFacadeIndexFileIsTheDaemonFile: ovm.WriteIndex writes the file ovmd
// serves — mapped zero-copy, stored postings adopted in place of a rebuild
// — and a service over it answers exactly as one over the in-memory index,
// from the index where an artifact matches (RS, RW) and without one (IC).
func TestFacadeIndexFileIsTheDaemonFile(t *testing.T) {
	d, err := ovm.LoadDataset("yelp-like", ovm.DatasetOptions{N: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const horizon, theta, seed = 8, 512, int64(5)
	idx, err := ovm.BuildIndex(d.Sys, ovm.IndexBuildOptions{
		Horizon: horizon, Seed: seed, SketchTheta: theta, IncludeWalks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.ovmidx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ovm.WriteIndex(f, idx); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	mi, err := serialize.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mi.Close() })
	if runtime.GOOS == "linux" && (!mi.Mapped() || mi.MappedBytes() == 0) {
		t.Fatalf("mapped=%v mappedBytes=%d, want the file served zero-copy", mi.Mapped(), mi.MappedBytes())
	}
	mem, file := ovm.NewQueryService(ovm.QueryServiceConfig{}), ovm.NewQueryService(ovm.QueryServiceConfig{})
	t.Cleanup(mem.Close)
	t.Cleanup(file.Close)
	if err := mem.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	if err := file.AddIndex("world", mi.Index); err != nil {
		t.Fatal(err)
	}
	if mi.Mapped() {
		// Every artifact byte of the file — walk storage and its postings
		// indexes — is served in place: a postings index rebuilt at
		// load would sit on the heap and leave its stored sections unused.
		a := d.Sys.Candidate(0).G.Arrays()
		system := int64(len(a.InStart)+len(a.InSrc)+len(a.OutStart)+len(a.OutDst))*4 +
			int64(len(a.InW)+len(a.OutW))*8 + int64(d.Sys.R()*d.Sys.N())*2*8
		if got, want := file.StatsSnapshot().Datasets[0].MappedBytes, mi.MappedBytes()-system; got != want {
			t.Errorf("dataset serves %d bytes in place, want all %d artifact bytes of the file", got, want)
		}
	}
	for _, q := range []struct {
		method, score string
		theta         int
		fromIndex     bool
	}{{"RS", "plurality", theta, true}, {"RW", "cumulative", 0, true}, {"IC", "plurality", 0, false}} {
		req := &ovm.SelectSeedsRequest{
			Dataset: "world", Method: q.method, Score: ovm.ScoreSpec{Name: q.score},
			K: 6, Horizon: horizon, Seed: seed, Theta: q.theta,
		}
		want, serr := mem.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		got, serr := file.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		if got.FromIndex != q.fromIndex || !reflect.DeepEqual(got.Seeds, want.Seeds) ||
			math.Float64bits(got.ExactValue) != math.Float64bits(want.ExactValue) {
			t.Errorf("%s/%s over the file: %v (%v, fromIndex=%v), in memory %v (%v)",
				q.method, q.score, got.Seeds, got.ExactValue, got.FromIndex, want.Seeds, want.ExactValue)
		}
	}
}
