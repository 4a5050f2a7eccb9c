package serialize_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ovm/internal/datasets"
	"ovm/internal/graph"
	"ovm/internal/opinion"
	"ovm/internal/postings"
	"ovm/internal/sampling"
	"ovm/internal/serialize"
	"ovm/internal/walks"
)

// buildTestIndex assembles a small but fully populated index: one sketch
// artifact and one walk artifact over a synthetic system.
func buildTestIndex(t testing.TB) *serialize.Index {
	t.Helper()
	d, err := datasets.YelpLike(datasets.Options{N: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sys := d.Sys
	cand := sys.Candidate(0)
	sampler, err := graph.NewInEdgeSampler(cand.G)
	if err != nil {
		t.Fatal(err)
	}
	const (
		horizon = 6
		theta   = 64
		lambda  = 3
		seed    = int64(9)
	)
	sketchSet, err := walks.GenerateSampled(sampler, cand.Stub, horizon, theta, sampling.Stream{Seed: seed, ID: 211}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sketchSnap, err := sketchSet.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	plan := make([]int32, sys.N())
	for v := range plan {
		plan[v] = lambda
	}
	walkSet, err := walks.Generate(sampler, cand.Stub, horizon, plan, sampling.Stream{Seed: seed, ID: 101}, 0)
	if err != nil {
		t.Fatal(err)
	}
	walkSnap, err := walkSet.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return &serialize.Index{
		Sys:      sys,
		Sketches: []*serialize.SketchArtifact{{Seed: seed, Target: 0, Horizon: horizon, Theta: theta, Set: sketchSnap}},
		Walks:    []*serialize.WalkArtifact{{Seed: seed, Target: 0, Horizon: horizon, Lambda: lambda, Set: walkSnap}},
	}
}

func TestIndexRoundTrip(t *testing.T) {
	idx := buildTestIndex(t)
	got, err := serialize.ReadIndex(bytes.NewReader(writeV3(t, idx)))
	if err != nil {
		t.Fatal(err)
	}
	// System: identical shapes, names, vectors (bit-exact), and edges.
	if got.Sys.N() != idx.Sys.N() || got.Sys.R() != idx.Sys.R() {
		t.Fatalf("system shape %dx%d, want %dx%d", got.Sys.N(), got.Sys.R(), idx.Sys.N(), idx.Sys.R())
	}
	for q := 0; q < idx.Sys.R(); q++ {
		a, b := idx.Sys.Candidate(q), got.Sys.Candidate(q)
		if a.Name != b.Name {
			t.Fatalf("candidate %d name %q vs %q", q, a.Name, b.Name)
		}
		if !reflect.DeepEqual(a.Init, b.Init) || !reflect.DeepEqual(a.Stub, b.Stub) {
			t.Fatalf("candidate %d vectors differ after round trip", q)
		}
	}
	if !reflect.DeepEqual(idx.Sys.Candidate(0).G.Edges(), got.Sys.Candidate(0).G.Edges()) {
		t.Fatal("graph edges differ after round trip")
	}
	// Artifacts: parameters and snapshots bit-exact.
	if len(got.Sketches) != 1 || len(got.Walks) != 1 || got.RRs != nil {
		t.Fatalf("artifact counts %d/%d/%d, want 1/1/0", len(got.Sketches), len(got.Walks), len(got.RRs))
	}
	if !reflect.DeepEqual(idx.Sketches[0], got.Sketches[0]) {
		t.Error("sketch artifact differs after round trip")
	}
	if !reflect.DeepEqual(idx.Walks[0], got.Walks[0]) {
		t.Error("walk artifact differs after round trip")
	}
	// Restored artifacts must be live: FromSnapshot accepts them.
	if _, err := walks.FromSnapshot(got.Sys.Candidate(0).G, got.Sketches[0].Set); err != nil {
		t.Errorf("restoring sketch set: %v", err)
	}
}

func TestIndexChecksumDetectsCorruption(t *testing.T) {
	idx := buildTestIndex(t)
	data := writeV3(t, idx)
	// Flip one byte somewhere in the middle of the payload.
	data[len(data)/2] ^= 0x40
	if _, err := serialize.ReadIndex(bytes.NewReader(data)); err == nil {
		t.Error("expected error for corrupted index payload")
	}
}

func TestIndexRejectsWrongVersion(t *testing.T) {
	idx := buildTestIndex(t)
	data := writeV3(t, idx)
	// The version field follows the magic. The retired v1/v2 and any newer
	// version are refused by the header check with the typed error and the
	// remedy, whatever follows the header.
	for _, version := range []byte{1, 2, 4, 99} {
		data[len("OVMIDX")] = version
		_, err := serialize.ReadIndex(bytes.NewReader(data))
		if !errors.Is(err, serialize.ErrUnsupportedVersion) {
			t.Fatalf("version %d: got %v, want ErrUnsupportedVersion", version, err)
		}
		for _, want := range []string{fmt.Sprintf("format version %d", version), "rebuild with ovmd -build-index"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("version %d: error %q does not say %q", version, err, want)
			}
		}
	}
}

func TestIndexRejectsTruncation(t *testing.T) {
	idx := buildTestIndex(t)
	data := writeV3(t, idx)
	for _, cut := range []int{0, 3, len("OVMIDX") + 2, len(data) / 3, len(data) - 1} {
		if _, err := serialize.ReadIndex(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("expected error for index truncated to %d bytes", cut)
		}
	}
}

func TestWriteSystemRejectsNaNInf(t *testing.T) {
	sys := nanSystem(t, math.NaN())
	if err := serialize.WriteSystem(&bytes.Buffer{}, sys); err == nil {
		t.Error("expected WriteSystem to reject NaN opinion")
	}
	sys = nanSystem(t, math.Inf(1))
	if err := serialize.WriteSystem(&bytes.Buffer{}, sys); err == nil {
		t.Error("expected WriteSystem to reject Inf opinion")
	}
	if err := serialize.WriteIndexV3(&bytes.Buffer{}, &serialize.Index{Sys: sys}, serialize.V3Options{}); err == nil {
		t.Error("expected WriteIndexV3 to reject Inf opinion")
	}
}

// nanSystem builds a valid system, then smuggles a non-finite value into an
// opinion vector (bypassing NewSystem validation, as an in-place mutation
// after construction would).
func nanSystem(t *testing.T, bad float64) *opinion.System {
	t.Helper()
	d, err := datasets.YelpLike(datasets.Options{N: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	d.Sys.Candidate(1).Init[7] = bad
	return d.Sys
}

// TestReadIndexAllocatesImageOnce: the heap load holds one copy of the
// file (the parsed arrays alias it), not a grown-and-reassembled series.
func TestReadIndexAllocatesImageOnce(t *testing.T) {
	d, err := datasets.YelpLike(datasets.Options{N: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	data := writeV3(t, &serialize.Index{Sys: d.Sys})
	if len(data) < 1<<20 {
		t.Fatalf("test image is %d bytes, want >= 1 MB", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := serialize.ReadIndex(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(data))*3/2; got >= limit {
		t.Errorf("ReadIndex of a %d-byte image allocated %d bytes, want < %d", len(data), got, limit)
	}
}

// retiredImages are the three inputs this build must refuse, never parse: a
// bare v1 header, a bare v2 header, and a v3 image whose first postings
// reference is patched to the retired raw mode 1 (section and table CRCs
// fixed up, so the mode byte is what the parser reaches).
func retiredImages(t testing.TB, idx *serialize.Index) [][]byte {
	t.Helper()
	header := func(version uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte("OVMIDX"), version)
	}
	raw := writeV3(t, idx)
	manifest := v3TableEntry(raw, 0)
	off, length := binary.LittleEndian.Uint64(manifest[0:]), binary.LittleEndian.Uint64(manifest[8:])
	payload := raw[off : off+length]
	// The compact reference is {mode 2, u32 block size, u8 hasPos, ...}; the
	// first one in the manifest belongs to sketch artifact 0.
	ref := append([]byte{2}, binary.LittleEndian.AppendUint32(nil, uint32(postings.DefaultBlockSize))...)
	at := bytes.Index(payload, append(ref, 1))
	if at < 0 {
		t.Fatal("no compact postings reference found in the manifest")
	}
	payload[at] = 1
	binary.LittleEndian.PutUint32(manifest[20:], crc32.ChecksumIEEE(payload))
	fixV3TableCRC(raw)
	return [][]byte{header(1), header(2), raw}
}

// FuzzReadIndex feeds arbitrary bytes to the binary index parser: it must
// either return a valid index or an error — never panic or hang.
func FuzzReadIndex(f *testing.F) {
	idx := buildTestIndexWithPostings(f)
	// Section-table seeds: pristine, truncated in the header, mid-table and
	// mid-payload, and bit-flipped in the table and in a payload.
	v3 := writeV3(f, idx)
	f.Add(v3)
	f.Add(v3[:len("OVMIDX")+4])
	f.Add(v3[:30])
	f.Add(v3[:len(v3)/2])
	f.Add([]byte("OVMIDX"))
	f.Add([]byte{})
	v3mut := append([]byte(nil), v3...)
	v3mut[26] ^= 0x04 // section table entry
	f.Add(v3mut)
	v3mut2 := append([]byte(nil), v3...)
	v3mut2[len(v3mut2)-9] ^= 0x80 // payload byte
	f.Add(v3mut2)
	for i, data := range retiredImages(f, idx) {
		_, err := serialize.ReadIndex(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "rebuild with ovmd -build-index") {
			f.Fatalf("retired image %d: got %v, want a refusal naming the remedy", i, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := serialize.ReadIndex(bytes.NewReader(data))
		if err == nil && got.Sys == nil {
			t.Fatal("ReadIndex returned nil system without error")
		}
	})
}
