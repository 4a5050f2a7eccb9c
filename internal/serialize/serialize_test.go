package serialize_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ovm/internal/datasets"
	"ovm/internal/opinion"
	"ovm/internal/paperexample"
	"ovm/internal/serialize"
)

func TestRoundTripPaperExample(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serialize.WriteSystem(&buf, sys); err != nil {
		t.Fatal(err)
	}
	got, err := serialize.ReadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != sys.N() || got.R() != sys.R() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", got.N(), got.R(), sys.N(), sys.R())
	}
	for q := 0; q < sys.R(); q++ {
		a, b := sys.Candidate(q), got.Candidate(q)
		if a.Name != b.Name {
			t.Errorf("candidate %d name %q vs %q", q, a.Name, b.Name)
		}
		for v := 0; v < sys.N(); v++ {
			if a.Init[v] != b.Init[v] || a.Stub[v] != b.Stub[v] {
				t.Fatalf("candidate %d node %d vectors differ", q, v)
			}
		}
	}
	// Diffusion results must match exactly: the Table I anchor still holds
	// on the reloaded system.
	for _, row := range paperexample.TableI {
		a := opinion.OpinionsAt(sys.Candidate(0), 1, row.Seeds)
		b := opinion.OpinionsAt(got.Candidate(0), 1, row.Seeds)
		for v := range a {
			if math.Abs(a[v]-b[v]) > 1e-15 {
				t.Fatalf("diffusion differs after round trip: %v vs %v", a[v], b[v])
			}
		}
	}
}

func TestRoundTripDataset(t *testing.T) {
	d, err := datasets.YelpLike(datasets.Options{N: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serialize.WriteSystem(&buf, d.Sys); err != nil {
		t.Fatal(err)
	}
	got, err := serialize.ReadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.R() != 10 || got.N() != 150 {
		t.Fatalf("shape %dx%d, want 150x10", got.N(), got.R())
	}
	if got.Candidate(3).Name != d.Sys.Candidate(3).Name {
		t.Error("candidate names lost")
	}
	// Spot-check graph equivalence via a diffusion fingerprint.
	a := opinion.OpinionsAt(d.Sys.Candidate(0), 7, []int32{5})
	b := opinion.OpinionsAt(got.Candidate(0), 7, []int32{5})
	for v := range a {
		if math.Abs(a[v]-b[v]) > 1e-12 {
			t.Fatalf("node %d diffusion differs: %v vs %v", v, a[v], b[v])
		}
	}
}

func TestReadSystemMalformed(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serialize.WriteSystem(&buf, sys); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	cases := map[string]string{
		"empty":            "",
		"bad magic":        strings.Replace(good, "ovm-system v1", "nope v9", 1),
		"bad count":        strings.Replace(good, "candidates 2", "candidates x", 1),
		"single candidate": strings.Replace(good, "candidates 2", "candidates 1", 1),
		"missing init":     strings.Replace(good, "init ", "xnit ", 1),
		"bad float":        strings.Replace(good, "0.4", "zz", 1),
		"truncated":        good[:len(good)/2],
	}
	for name, in := range cases {
		if _, err := serialize.ReadSystem(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestWriteRejectsNewlineName(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	sys.Candidate(0).Name = "evil\nname"
	var buf bytes.Buffer
	if err := serialize.WriteSystem(&buf, sys); err == nil {
		t.Error("expected error for newline in candidate name")
	}
	sys.Candidate(0).Name = "c1"
}

func TestVectorLengthMismatchRejected(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serialize.WriteSystem(&buf, sys); err != nil {
		t.Fatal(err)
	}
	// Drop one value from the first init vector: system validation must
	// reject the length mismatch.
	broken := strings.Replace(buf.String(), "init 0.4 0.8 0.6 0.9", "init 0.4 0.8 0.6", 1)
	if _, err := serialize.ReadSystem(strings.NewReader(broken)); err == nil {
		t.Error("expected error for short init vector")
	}
}

// TestReadSystemRejectsNaN: a NaN initial opinion or stubbornness is
// outside [0,1] and fails the load, like any other out-of-range value,
// instead of being served as NaN scores.
func TestReadSystemRejectsNaN(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serialize.WriteSystem(&buf, sys); err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"init", "stub"} {
		lines := strings.Split(buf.String(), "\n")
		for i, l := range lines {
			if f := strings.Fields(l); len(f) > 1 && f[0] == tag {
				f[1] = "NaN"
				lines[i] = strings.Join(f, " ")
				break
			}
		}
		if _, err := serialize.ReadSystem(strings.NewReader(strings.Join(lines, "\n"))); err == nil {
			t.Errorf("read a system with NaN in its first %s vector", tag)
		}
	}
}
