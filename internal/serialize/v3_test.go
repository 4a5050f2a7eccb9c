package serialize_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ovm/internal/serialize"
	"ovm/internal/walks"
)

// buildTestIndexWithPostings extends buildTestIndex with persisted postings
// indexes on every artifact, exercising the v3 index sections.
func buildTestIndexWithPostings(t testing.TB) *serialize.Index {
	t.Helper()
	idx := buildTestIndex(t)
	g := idx.Sys.Candidate(0).G
	for _, art := range idx.Sketches {
		set, err := walks.FromSnapshot(g, art.Set)
		if err != nil {
			t.Fatal(err)
		}
		set.EnsureIndex()
		art.Index = set.IndexSnapshot()
	}
	for _, art := range idx.Walks {
		set, err := walks.FromSnapshot(g, art.Set)
		if err != nil {
			t.Fatal(err)
		}
		set.EnsureIndex()
		art.Index = set.IndexSnapshot()
	}
	return idx
}

func writeV3(t testing.TB, idx *serialize.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := serialize.WriteIndexV3(&buf, idx, serialize.V3Options{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkIndexEquivalent verifies got matches want in system, artifacts, and
// update log, and that artifacts are live (restorable, adoptable indexes).
func checkIndexEquivalent(t *testing.T, want, got *serialize.Index) {
	t.Helper()
	if got.Sys.N() != want.Sys.N() || got.Sys.R() != want.Sys.R() {
		t.Fatalf("system shape %dx%d, want %dx%d", got.Sys.N(), got.Sys.R(), want.Sys.N(), want.Sys.R())
	}
	for q := 0; q < want.Sys.R(); q++ {
		a, b := want.Sys.Candidate(q), got.Sys.Candidate(q)
		if a.Name != b.Name {
			t.Fatalf("candidate %d name %q vs %q", q, a.Name, b.Name)
		}
		if !reflect.DeepEqual(a.Init, b.Init) || !reflect.DeepEqual(a.Stub, b.Stub) {
			t.Fatalf("candidate %d vectors differ", q)
		}
	}
	if !reflect.DeepEqual(want.Sys.Candidate(0).G.Edges(), got.Sys.Candidate(0).G.Edges()) {
		t.Fatal("graph edges differ")
	}
	if len(got.Sketches) != len(want.Sketches) || len(got.Walks) != len(want.Walks) || got.RRs != nil {
		t.Fatalf("artifact counts %d/%d/%d, want %d/%d/0",
			len(got.Sketches), len(got.Walks), len(got.RRs),
			len(want.Sketches), len(want.Walks))
	}
	g := got.Sys.Candidate(0).G
	for i, a := range want.Sketches {
		b := got.Sketches[i]
		if a.Seed != b.Seed || a.Target != b.Target || a.Horizon != b.Horizon || a.Theta != b.Theta {
			t.Fatalf("sketch artifact %d parameters differ", i)
		}
		checkWalkSnapshotEqual(t, a.Set, b.Set)
		set, err := walks.FromSnapshot(g, b.Set)
		if err != nil {
			t.Fatalf("restoring sketch set %d: %v", i, err)
		}
		if b.Index != nil {
			if err := set.AdoptIndex(b.Index); err != nil {
				t.Fatalf("adopting sketch index %d: %v", i, err)
			}
		}
	}
	for i, a := range want.Walks {
		b := got.Walks[i]
		if a.Seed != b.Seed || a.Target != b.Target || a.Horizon != b.Horizon || a.Lambda != b.Lambda {
			t.Fatalf("walk artifact %d parameters differ", i)
		}
		checkWalkSnapshotEqual(t, a.Set, b.Set)
		set, err := walks.FromSnapshot(g, b.Set)
		if err != nil {
			t.Fatalf("restoring walk set %d: %v", i, err)
		}
		if b.Index != nil {
			if err := set.AdoptIndex(b.Index); err != nil {
				t.Fatalf("adopting walk index %d: %v", i, err)
			}
		}
	}
	if got.BaseEpoch != want.BaseEpoch {
		t.Fatalf("base epoch %d, want %d", got.BaseEpoch, want.BaseEpoch)
	}
	if len(got.Updates) != len(want.Updates) {
		t.Fatalf("update log has %d batches, want %d", len(got.Updates), len(want.Updates))
	}
}

func checkWalkSnapshotEqual(t *testing.T, a, b *walks.Snapshot) {
	t.Helper()
	if a.Horizon != b.Horizon ||
		!reflect.DeepEqual(a.Nodes, b.Nodes) || !reflect.DeepEqual(a.Off, b.Off) ||
		!reflect.DeepEqual(a.OwnerNodes, b.OwnerNodes) || !reflect.DeepEqual(a.OwnerOff, b.OwnerOff) {
		t.Fatal("walk snapshots differ")
	}
}

func TestV3RoundTripHeap(t *testing.T) {
	idx := buildTestIndexWithPostings(t)
	data := writeV3(t, idx)
	got, err := serialize.ReadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	checkIndexEquivalent(t, idx, got)
}

func TestV3OpenMapped(t *testing.T) {
	idx := buildTestIndexWithPostings(t)
	data := writeV3(t, idx)
	path := filepath.Join(t.TempDir(), "index.ovm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mi, err := serialize.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mi.Close()
	checkIndexEquivalent(t, idx, mi.Index)
	if !mi.Mapped() {
		t.Skip("platform fell back to heap load")
	}
	if mi.MappedBytes() == 0 {
		t.Error("mapped load reports zero mapped bytes")
	}
	if mi.MappedBytes() > int64(len(data)) {
		t.Errorf("mapped bytes %d exceed file size %d", mi.MappedBytes(), len(data))
	}
	for _, art := range mi.Index.Walks {
		if !art.Set.Mapped {
			t.Error("mapped walk artifact storage not flagged Mapped")
		}
		if art.Index == nil || art.Index.Compact == nil {
			t.Error("mapped walk artifact lacks compact index")
		}
	}
}

// v3TableEntry gives mutation access to section table entry i.
func v3TableEntry(data []byte, i int) []byte {
	return data[24+i*24 : 24+(i+1)*24]
}

// fixV3TableCRC recomputes the header's table checksum after a table
// mutation, so the deliberately-broken field under test is what the
// parser actually reaches.
func fixV3TableCRC(data []byte) {
	numSections := binary.LittleEndian.Uint32(data[12:])
	table := data[24 : 24+int(numSections)*24]
	binary.LittleEndian.PutUint32(data[16:], crc32.ChecksumIEEE(table))
}

func TestV3RejectsCorruption(t *testing.T) {
	idx := buildTestIndexWithPostings(t)
	pristine := writeV3(t, idx)
	numSections := int(binary.LittleEndian.Uint32(pristine[12:]))
	if numSections < 3 {
		t.Fatalf("test image has only %d sections", numSections)
	}
	tableEnd := 24 + numSections*24

	cases := []struct {
		name   string
		mutate func(data []byte)
	}{
		{"bad table crc", func(data []byte) {
			data[16] ^= 0xff
		}},
		{"misaligned section offset", func(data []byte) {
			e := v3TableEntry(data, 1)
			binary.LittleEndian.PutUint64(e[0:], binary.LittleEndian.Uint64(e[0:])+4)
			fixV3TableCRC(data)
		}},
		{"overlapping sections", func(data []byte) {
			e0 := v3TableEntry(data, 0)
			e1 := v3TableEntry(data, 1)
			copy(e1[0:8], e0[0:8]) // section 1 starts where section 0 does
			fixV3TableCRC(data)
		}},
		{"section spans past end of file", func(data []byte) {
			e := v3TableEntry(data, numSections-1)
			binary.LittleEndian.PutUint64(e[8:], uint64(len(data)))
			fixV3TableCRC(data)
		}},
		{"unknown section kind", func(data []byte) {
			e := v3TableEntry(data, 1)
			binary.LittleEndian.PutUint32(e[16:], 77)
			fixV3TableCRC(data)
		}},
		{"second manifest", func(data []byte) {
			e := v3TableEntry(data, 1)
			binary.LittleEndian.PutUint32(e[16:], 1) // kind = manifest
			fixV3TableCRC(data)
		}},
		{"payload checksum mismatch", func(data []byte) {
			data[tableEnd+(len(data)-tableEnd)/2] ^= 0x40
		}},
		{"zero sections", func(data []byte) {
			binary.LittleEndian.PutUint32(data[12:], 0)
		}},
		{"header padding set", func(data []byte) {
			data[10] = 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), pristine...)
			tc.mutate(data)
			if _, err := serialize.ReadIndex(bytes.NewReader(data)); err == nil {
				t.Error("expected stream reader to reject corrupted v3 image")
			}
			path := filepath.Join(t.TempDir(), "bad.ovm")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if mi, err := serialize.OpenMapped(path); err == nil {
				mi.Close()
				t.Error("expected mapped reader to reject corrupted v3 image")
			}
		})
	}
}

func TestV3RejectsTruncation(t *testing.T) {
	idx := buildTestIndexWithPostings(t)
	data := writeV3(t, idx)
	dir := t.TempDir()
	for _, cut := range []int{0, 3, 10, 23, 24, 24 + 24, len(data) / 3, len(data) / 2, len(data) - 1} {
		trunc := data[:cut]
		if _, err := serialize.ReadIndex(bytes.NewReader(trunc)); err == nil {
			t.Errorf("expected stream reader to reject v3 image truncated to %d bytes", cut)
		}
		path := filepath.Join(dir, "trunc.ovm")
		if err := os.WriteFile(path, trunc, 0o644); err != nil {
			t.Fatal(err)
		}
		if mi, err := serialize.OpenMapped(path); err == nil {
			mi.Close()
			t.Errorf("expected mapped reader to reject v3 image truncated to %d bytes", cut)
		}
	}
}
