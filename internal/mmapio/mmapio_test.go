package mmapio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestOpenReadsFileBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	want := bytes.Repeat([]byte("ovmidx-region-"), 1024)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(want))
	}
	if !bytes.Equal(r.Data(), want) {
		t.Fatal("Data does not match the file contents")
	}
}

func TestOpenEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 0 {
		t.Fatalf("Len = %d, want 0", r.Len())
	}
	if r.Mapped() {
		t.Error("empty region reported Mapped")
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Open of a missing file succeeded")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if r.Data() != nil || r.Mapped() {
		t.Error("region still holds data after Close")
	}
}

// The mapping survives the original file being renamed over (the daemon's
// atomic-rewrite path keeps serving from the old mapping).
func TestRegionSurvivesRenameOver(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	want := bytes.Repeat([]byte{0xA5}, 4096)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	repl := filepath.Join(dir, "blob.tmp")
	if err := os.WriteFile(repl, []byte("replacement"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(repl, path); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data(), want) {
		t.Fatal("region contents changed after rename-over")
	}
}

// pattern is a few pages of bytes no zero-filled page matches.
func pattern(pages int) []byte {
	b := make([]byte, pages*os.Getpagesize())
	for i := range b {
		b[i] = byte(i%251) + 1
	}
	return b
}

// Release leaves a heap-fallback region's bytes alone: dropping the pages
// of heap memory would zero them.
func TestReleaseKeepsHeapFallbackBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	want := pattern(64)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := readFallback(f, len(want))
	if err != nil {
		t.Fatal(err)
	}
	r.Release(r.Data())
	trail := r.Trail(r.Data())
	trail.Advance(len(want))
	trail.Finish()
	if !bytes.Equal(r.Data(), want) {
		t.Fatal("releasing a heap-fallback region changed its bytes")
	}
}

// A released range of a mapping reads back as the file, whether released
// whole, in part, or behind a trail.
func TestReleaseMappedRangeRereads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	want := pattern(600) // past a ReleaseWindow on 4 KiB pages
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data := r.Data()
	if !bytes.Equal(data, want) {
		t.Fatal("mapping does not match the file")
	}
	r.Release(data[100 : len(data)-100])
	if !bytes.Equal(data, want) {
		t.Fatal("bytes changed after releasing a range")
	}
	trail := r.Trail(data[7:])
	for n := 0; n < len(data)-7; n += 4096 + 13 {
		trail.Advance(n)
	}
	trail.Finish()
	r.Release(data)
	r.Release(pattern(1)) // bytes outside the region: nothing to release
	if !bytes.Equal(data, want) {
		t.Fatal("bytes changed after releasing the whole mapping")
	}
}
