package dynamic_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ovm/internal/dynamic"
)

// coalesceCorpus is the checked-in seed corpus: the repair corpus, whose
// one-op batches merge into runs that overwrite a stubbornness slot, plus a
// batch that sets one edge's weight twice and a batch on the same column
// that must not merge with it.
var coalesceCorpus = append(slices.Clone(repairCorpus),
	slices.Concat([]byte{1}, op(1, 5, 6, 40), op(1, 5, 6, 90), []byte{0}, op(0, 8, 6, 10)))

// FuzzCoalesceMatchesReplay is the coalescer's fuzz: over a batch sequence
// decoded as FuzzRepairMatchesRebuild decodes it, the runs Coalesce(raw,
// maxOps) forms for maxOps 0 and 3 cover the raw batches in order, a run
// that merged batches holds at most maxOps raw ops, and applying the
// super-batches run by run lands, after every run, on a system bitwise
// identical to replaying the raw batches it covers. Run over the seed corpus
// it must also see a run that merged batches and an elided op.
func FuzzCoalesceMatchesReplay(f *testing.F) {
	var inputs, merged, elided int
	for _, in := range coalesceCorpus {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, e := checkCoalesce(t, data)
		inputs, merged, elided = inputs+1, merged+m, elided+e
	})
	// As in FuzzRepairMatchesRebuild: only a plain run of the whole corpus
	// can vouch for what the corpus covers.
	f.Logf("%d inputs: %d merged runs, %d elided ops", inputs, merged, elided)
	if inputs == len(coalesceCorpus) && (merged == 0 || elided == 0) {
		f.Fatalf("seed corpus made %d merged runs and elided %d ops; it must do both", merged, elided)
	}
}

// checkCoalesce runs FuzzCoalesceMatchesReplay's checks over one input and
// counts the runs that merged batches and the ops the runs elided.
func checkCoalesce(t *testing.T, data []byte) (merged, elided int) {
	sys := testSystem(t, 150, 13)
	raw, systems, _ := decodeBatches(sys, data)
	for _, maxOps := range []int{0, 3} {
		runs := dynamic.Coalesce(raw, maxOps)
		co, next := sys, 0
		for i, run := range runs {
			name := fmt.Sprintf("maxOps=%d run %d", maxOps, i)
			rawOps := 0
			for _, b := range run.Raw {
				if next >= len(raw) || !reflect.DeepEqual(b, raw[next]) {
					t.Fatalf("%s: does not continue the raw batches at %d", name, next)
				}
				rawOps += len(b)
				next++
			}
			if len(run.Raw) > 1 {
				merged++
				if maxOps > 0 && rawOps > maxOps {
					t.Fatalf("%s: merged %d raw ops past the bound", name, rawOps)
				}
			}
			elided += rawOps - len(run.Super)
			applied, _, err := dynamic.ApplySystem(co, run.Super)
			if err != nil {
				t.Fatalf("%s: the super-batch fails where the raw replay did not: %v", name, err)
			}
			co = applied
			requireSameBits(t, name, co, systems[next-1])
		}
		if next != len(raw) {
			t.Fatalf("maxOps=%d: runs cover %d of %d raw batches", maxOps, next, len(raw))
		}
	}
	return merged, elided
}
