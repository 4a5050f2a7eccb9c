package service_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"ovm/internal/datasets"
	"ovm/internal/iofault"
	"ovm/internal/mmapio"
	"ovm/internal/persist"
	"ovm/internal/serialize"
	"ovm/internal/service"
	"ovm/internal/walks"
)

// residentBytes sums the Rss of this process's mappings of path (the file
// as it is now, or one renamed over, which smaps lists as "(deleted)").
func residentBytes(t *testing.T, path string) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var total int64
	ours := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) >= 5 && strings.Contains(fields[0], "-"): // a mapping's header line
			ours = strings.TrimSuffix(strings.Join(fields[5:], " "), " (deleted)") == path
		case ours && len(fields) == 3 && fields[0] == "Rss:":
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			total += kb << 10
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return total
}

// presentBytes counts the bytes of the pages under xs that this process's
// page table maps, from /proc/self/pagemap (bit 63 of a page's entry).
func presentBytes[E any](t *testing.T, xs []E) int64 {
	t.Helper()
	if len(xs) == 0 {
		return 0
	}
	f, err := os.Open("/proc/self/pagemap")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	page := uintptr(os.Getpagesize())
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(xs)))
	hi := lo + uintptr(len(xs))*unsafe.Sizeof(xs[0])
	first, last := lo/page, (hi-1)/page
	buf := make([]byte, 8*(last-first+1))
	if _, err := f.ReadAt(buf, int64(8*first)); err != nil {
		t.Fatal(err)
	}
	var n int64
	for i := range last - first + 1 {
		if binary.LittleEndian.Uint64(buf[8*i:])>>63 == 1 {
			n += int64(page)
		}
	}
	return n
}

// residencyWorld writes an index of about 20 MB over a 7 000-node graph,
// its walk set's nodes, offsets and postings each past a release window.
func residencyWorld(t *testing.T) (path string, n int) {
	t.Helper()
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 7000, Mu: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := service.BuildIndex(d.Sys, service.BuildOptions{Horizon: 10, Seed: 42, SketchTheta: 4096, IncludeWalks: true})
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "world.ovmidx")
	if err := persist.WriteIndexAtomic(iofault.OS, path, idx); err != nil {
		t.Fatal(err)
	}
	return path, d.Sys.N()
}

// TestMappedIndexResidency holds every pass over a mapped index to its
// promise: it releases the pages behind its cursor. After each pass — the
// load's checksums (OpenMapped), the walk restore (FromSnapshot), the
// postings verify (AdoptIndex), a registration running all three
// (AddMapped), a checkpoint exported and written out from the mapping, and
// that checkpoint mapped, verified and installed (Rebase) — the process
// keeps at most a quarter of the file resident, and at most one release
// window of any of the walk set's bulk sections. The pages stay in the page
// cache; only this process's page table is read.
func TestMappedIndexResidency(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("pages are released only on Linux")
	}
	path, n := residencyWorld(t)
	check := func(stage string, mi *serialize.MappedIndex) {
		t.Helper()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() < 16<<20 {
			t.Fatalf("index is %d bytes, want at least 16 MiB", info.Size())
		}
		rss := residentBytes(t, path)
		t.Logf("%s: %d of %d bytes resident (%.1f%%)", stage, rss, info.Size(), 100*float64(rss)/float64(info.Size()))
		if rss > info.Size()/4 {
			t.Errorf("%s: %d of the index's %d bytes resident, want at most a quarter", stage, rss, info.Size())
		}
		a := mi.Index.Walks[0]
		for _, sec := range []struct {
			name    string
			present int64
		}{
			{"walk nodes", presentBytes(t, a.Set.Nodes)},
			{"walk offsets", presentBytes(t, a.Set.Off)},
			{"postings", presentBytes(t, a.Index.Compact.Data)},
		} {
			if sec.present > mmapio.ReleaseWindow {
				t.Errorf("%s: %d bytes of the %s resident, want at most one release window (%d)", stage, sec.present, sec.name, mmapio.ReleaseWindow)
			}
		}
	}

	mi, err := serialize.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mi.Mapped() {
		t.Skip("platform fell back to a heap load")
	}
	check("checksums", mi)
	for _, a := range append(mi.Index.Sketches, mi.Index.Walks...) {
		set, err := walks.FromSnapshot(mi.Index.Sys.Candidate(a.Target).G, a.Set)
		if err != nil {
			t.Fatal(err)
		}
		check("walk restore", mi)
		if err := set.AdoptIndex(a.Index); err != nil {
			t.Fatal(err)
		}
		check("postings verify", mi)
	}

	f := &filed{svc: service.New(service.Config{}), path: path}
	t.Cleanup(f.svc.Close)
	if err := f.svc.AddMapped("world", mi, true); err != nil {
		t.Fatal(err)
	}
	check("registration", mi)
	// Batches that touch both candidates' walk sets, so the checkpoint
	// streams each from its mapped base plus an overlay.
	for _, b := range churnBatches(7, n, 8) {
		if _, serr := f.svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
			t.Fatal(serr)
		}
	}
	if err := f.write(); err != nil {
		t.Fatal(err)
	}
	check("checkpoint written", mi)
	next, err := serialize.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Rebase("world", next); err != nil {
		t.Fatal(err)
	}
	check("checkpoint installed", next)
}

// walkNodesSection returns the file offset and length of the walk set's
// node section: the i32 section as long as its nodes.
func walkNodesSection(t *testing.T, data []byte) (off, length int) {
	t.Helper()
	idx, err := serialize.ReadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * len(idx.Walks[0].Set.Nodes)
	for i := range int(binary.LittleEndian.Uint32(data[12:])) {
		e := data[24+24*i:]
		if binary.LittleEndian.Uint32(e[16:]) == 2 && int(binary.LittleEndian.Uint64(e[8:])) == want {
			return int(binary.LittleEndian.Uint64(e[0:])), want
		}
	}
	t.Fatal("no walk node section in the file")
	return 0, 0
}

// TestLastWindowCorruptionRefused: the passes that release pages still read
// every byte. A byte flipped in the last release window of the walk set's
// node section fails the checksum at load and at install, and with the
// checksums recomputed over it, the walk restore refuses the node it names
// at load and at install.
func TestLastWindowCorruptionRefused(t *testing.T) {
	path, _ := residencyWorld(t)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off, length := walkNodesSection(t, good)
	if length <= 2*mmapio.ReleaseWindow {
		t.Fatalf("walk node section is %d bytes, want past two release windows", length)
	}
	// The last walk element: a node id far out of range once its top byte
	// is flipped.
	at := off + length - 1
	flipped := func(fixCRC bool) []byte {
		data := append([]byte(nil), good...)
		data[at] ^= 0x40
		if fixCRC {
			for i := range int(binary.LittleEndian.Uint32(data[12:])) {
				e := data[24+24*i:]
				if int(binary.LittleEndian.Uint64(e[0:])) == off {
					binary.LittleEndian.PutUint32(e[20:], crc32.ChecksumIEEE(data[off:off+length]))
				}
			}
			numSections := int(binary.LittleEndian.Uint32(data[12:]))
			binary.LittleEndian.PutUint32(data[16:], crc32.ChecksumIEEE(data[24:24+24*numSections]))
		}
		return data
	}
	for _, tc := range []struct {
		name   string
		fixCRC bool
		want   string
	}{
		{"checksum", false, "checksum mismatch"},
		{"walk restore", true, "references node"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := flipped(tc.fixCRC)
			dir := t.TempDir()
			// Load: the file opened and registered as ovmd -index does.
			badPath := filepath.Join(dir, "bad.ovmidx")
			if err := os.WriteFile(badPath, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			err := func() error {
				mi, err := serialize.OpenMapped(badPath)
				if err != nil {
					return err
				}
				svc := service.New(service.Config{})
				defer svc.Close()
				return svc.AddMapped("world", mi, true)
			}()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("load: error %v, want one saying %q", err, tc.want)
			}
			// Install: a checkpoint of the served file, replaced by the
			// damaged bytes before it is mapped and rebased onto.
			served := filepath.Join(dir, "world.ovmidx")
			if err := os.WriteFile(served, good, 0o644); err != nil {
				t.Fatal(err)
			}
			f := openFiled(t, served, 0)
			if err := f.write(); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(badPath, served); err != nil {
				t.Fatal(err)
			}
			if err := f.install(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("install: error %v, want one saying %q", err, tc.want)
			}
		})
	}
}
