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

func TestFacadeHK(t *testing.T) {
	sys := paperSystem(t)
	// ε = 1 coincides with FJ: compare to the Table I row for seed {3}.
	res, err := ovm.HKOpinionsAt(sys.Candidate(0), ovm.HKParams{Epsilon: 1}, 1, []int32{2})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.40, 0.80, 1.00, 0.95}
	for v := range want {
		if math.Abs(res[v]-want[v]) > 1e-12 {
			t.Errorf("HK opinion[%d] = %v, want %v", v, res[v], want[v])
		}
	}
	B, err := ovm.HKOpinionMatrix(sys, ovm.HKParams{Epsilon: 1}, 1, 0, []int32{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(B) != 2 {
		t.Fatalf("HK matrix rows = %d, want 2", len(B))
	}
	if _, err := ovm.HKOpinionsAt(sys.Candidate(0), ovm.HKParams{Epsilon: -1}, 1, nil); err == nil {
		t.Error("expected error for negative epsilon")
	}
}

func TestFacadeVoter(t *testing.T) {
	sys := paperSystem(t)
	p := ovm.VoterParams{Horizon: 5, Target: 0, Rounds: 200}
	none, err := ovm.VoterExpectedShare(sys, p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	all, err := ovm.VoterExpectedShare(sys, p, []int32{0, 1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if all != 1 {
		t.Errorf("all-zealot share = %v, want 1", all)
	}
	if none < 0 || none > 1 {
		t.Errorf("share %v outside [0,1]", none)
	}
	if _, err := ovm.VoterExpectedShare(sys, ovm.VoterParams{Horizon: 1, Target: 9, Rounds: 1}, nil, 1); err == nil {
		t.Error("expected error for bad target")
	}
}

// TestFacadeIndexFileIsTheDaemonFile: ovm.WriteIndex writes the file ovmd
// serves — mapped zero-copy, stored postings adopted in place of a rebuild
// — and a service over it answers exactly as one over the in-memory index.
func TestFacadeIndexFileIsTheDaemonFile(t *testing.T) {
	d, err := ovm.LoadDataset("yelp-like", ovm.DatasetOptions{N: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const horizon, theta, seed = 8, 512, int64(5)
	idx, err := ovm.BuildIndex(d.Sys, ovm.IndexBuildOptions{
		Horizon: horizon, Seed: seed, SketchTheta: theta, IncludeWalks: true, RRSets: 300,
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
		// Every artifact byte of the file — walk and RR storage and their
		// postings indexes — is served in place: a postings index rebuilt at
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
	}{{"RS", "plurality", theta}, {"RW", "cumulative", 0}, {"IC", "plurality", 0}} {
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
		if !got.FromIndex || !reflect.DeepEqual(got.Seeds, want.Seeds) ||
			math.Float64bits(got.ExactValue) != math.Float64bits(want.ExactValue) {
			t.Errorf("%s/%s over the file: %v (%v, fromIndex=%v), in memory %v (%v)",
				q.method, q.score, got.Seeds, got.ExactValue, got.FromIndex, want.Seeds, want.ExactValue)
		}
	}
}
