package experiments

import (
	"testing"

	"ovm/internal/core"
	"ovm/internal/methods"
	"ovm/internal/paperexample"
	"ovm/internal/voting"
)

func TestOverlap(t *testing.T) {
	if got := overlap([]int32{1, 2, 3}, []int32{2, 3, 4}); got < 66 || got > 67 {
		t.Errorf("overlap = %v, want ~66.7", got)
	}
	if got := overlap(nil, []int32{1}); got != 0 {
		t.Errorf("empty overlap = %v, want 0", got)
	}
	if got := overlap([]int32{5}, []int32{5}); got != 100 {
		t.Errorf("identical overlap = %v, want 100", got)
	}
}

func TestParamsSize(t *testing.T) {
	p := Params{Quick: true}.withDefaults()
	if got := p.size(5000, 123); got != 123 {
		t.Errorf("quick size = %d, want 123", got)
	}
	p = Params{Scale: 0.5}.withDefaults()
	if got := p.size(5000, 123); got != 2500 {
		t.Errorf("scaled size = %d, want 2500", got)
	}
	// Scale never drops below the quick floor.
	p = Params{Scale: 0.001}.withDefaults()
	if got := p.size(5000, 123); got != 123 {
		t.Errorf("floored size = %d, want 123", got)
	}
}

func TestPickInts(t *testing.T) {
	full := []int{1, 2, 3}
	quick := []int{9}
	if got := pickInts(Params{Quick: true}, full, quick); len(got) != 1 || got[0] != 9 {
		t.Errorf("quick pick = %v", got)
	}
	if got := pickInts(Params{}, full, quick); len(got) != 3 {
		t.Errorf("full pick = %v", got)
	}
}

func TestSortedCopy(t *testing.T) {
	in := []int32{3, 1, 2}
	out := sortedCopy(in)
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Errorf("sortedCopy = %v", out)
	}
	if in[0] != 3 {
		t.Error("sortedCopy mutated its input")
	}
}

func TestWinSelectorDispatch(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{Sys: sys, Target: 0, Horizon: 1, K: 1, Score: voting.Plurality{}}
	for _, m := range []string{"DM", "RW", "RS"} {
		sel, err := winSelector(m, p, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		seeds, err := sel(1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(seeds) != 1 {
			t.Errorf("%s: got %d seeds", m, len(seeds))
		}
	}
	if _, err := winSelector("PR", p, 1, 1); err == nil {
		t.Error("expected error for unsupported win selector")
	}
}

func TestRunMethodUnknown(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{Sys: sys, Target: 0, Horizon: 1, K: 1, Score: voting.Plurality{}}
	if _, err := runMethod("bogus", p, 1, 1); err == nil {
		t.Error("expected error for unknown method")
	}
}

func TestRunMethodAllKnown(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range methods.Names {
		p := &core.Problem{Sys: sys, Target: 0, Horizon: 1, K: 1, Score: voting.Cumulative{}}
		res, err := runMethod(m, p, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(res.Seeds) != 1 || res.Exact <= 0 {
			t.Errorf("%s: seeds=%v exact=%v", m, res.Seeds, res.Exact)
		}
	}
}
