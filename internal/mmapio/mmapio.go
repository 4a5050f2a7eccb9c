// Package mmapio maps whole files read-only into memory so the index
// loader (internal/serialize) can alias typed slices over file bytes with
// zero deserialization. On platforms without mmap support the package
// degrades to reading the file into a heap buffer — callers see the same
// []byte either way, only Mapped() and the page-cache sharing change.
package mmapio

import (
	"fmt"
	"os"
	"unsafe"

	"ovm/internal/obs"
)

// Mapping cost accounting: how many regions ended up mmap'd versus on
// the heap fallback, and the byte volume mapped — the denominator for
// the zero-copy story the serialize counters tell per section.
var (
	regionsMapped = obs.NewCounter("ovm_mmap_regions_mapped_total",
		"File regions opened as read-only memory maps")
	regionsHeap = obs.NewCounter("ovm_mmap_regions_heap_total",
		"File regions opened on the heap-read fallback path")
	bytesMapped = obs.NewCounter("ovm_mmap_bytes_mapped_total",
		"Bytes served from read-only memory-mapped regions")
)

// Region is a read-only view of a file's contents. When Mapped reports
// true the bytes alias kernel page-cache pages and writing to them faults;
// treat Data as immutable in both modes.
type Region struct {
	data   []byte
	mapped bool
}

// Data returns the file contents. The slice is only valid until Close.
func (r *Region) Data() []byte { return r.data }

// Mapped reports whether Data aliases an mmap'd region (true) or a heap
// copy (false, the fallback path; also for a nil Region).
func (r *Region) Mapped() bool { return r != nil && r.mapped }

// Len returns the number of bytes in the region.
func (r *Region) Len() int { return len(r.data) }

// Open maps the file at path read-only. An empty file yields an empty
// non-mapped region (mmap of length 0 is an error on Linux).
func Open(path string) (*Region, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &Region{data: nil, mapped: false}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmapio: %s is too large to map (%d bytes)", path, size)
	}
	r, err := openFile(f, int(size))
	if err == nil && obs.CostEnabled() {
		if r.mapped {
			regionsMapped.Inc()
			bytesMapped.Add(int64(len(r.data)))
		} else {
			regionsHeap.Inc()
		}
	}
	return r, err
}

// pageSize is the granularity Release drops pages at.
var pageSize = os.Getpagesize()

// Release drops this process's page-table entries for the whole pages
// inside b, which must alias r's data. The next read of them faults the
// same bytes back in from the page cache, so a pass over the region can
// release what it has finished reading and the resident set holds only the
// pages still being read. The pages stay in the page cache: Release shrinks
// the process's resident set, not the memory the file occupies. It does
// nothing on a heap-fallback region (dropping heap pages would zero them),
// for bytes outside the region, or off Linux.
func (r *Region) Release(b []byte) {
	if r == nil || !r.mapped || len(b) == 0 {
		return
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(r.data)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	if lo < base || lo-base > uintptr(len(r.data)) || uintptr(len(b)) > uintptr(len(r.data))-(lo-base) {
		return
	}
	ps := uintptr(pageSize)
	start, end := (lo+ps-1)&^(ps-1), (lo+uintptr(len(b)))&^(ps-1)
	if start < end {
		dropPages(r.data[start-base : end-base])
	}
}

// ReleaseWindow is how far a Trail lets a pass read past its last release
// before releasing again, so a pass keeps about one window resident. On a
// 2-vCPU Linux VM, loading a 33.5 MB index in ovmd (checksums, walk restore,
// postings verify) took the same time within noise with 1 MiB windows, 4 MiB
// windows and no release at all (medians 83.0, 85.8 and 85.6 ms over 12
// alternated loads each), and an earlier sweep timed 64 KiB and 256 KiB
// alike; the daemon's peak resident set after the load read 18.4, 23.3 and
// 42.9 MB (16.5 and 16.9 MB at the small windows). 1 MiB holds a pass over
// that file to 32 madvise calls, each a TLB flush, for 2 MB over the
// smallest windows.
const ReleaseWindow = 1 << 20

// Trail releases the pages behind a sequential pass over b, part of a
// region, one ReleaseWindow at a time and each page once. The zero Trail,
// and a Trail over a heap region, release nothing.
type Trail struct {
	r    *Region
	b    []byte
	done int // b[:done] has been released, as far as its whole pages go
}

// Trail starts a release trail over b, which aliases r's data (r may be
// nil).
func (r *Region) Trail(b []byte) Trail {
	if r == nil || !r.mapped {
		return Trail{}
	}
	return Trail{r: r, b: b}
}

// Advance tells the trail the pass is done with b[:n]. Once that reaches a
// window past the last release, the pages in between are released.
func (t *Trail) Advance(n int) {
	if t.r == nil || n-t.done < ReleaseWindow {
		return
	}
	t.r.Release(t.b[t.done:n])
	// Restart at the page holding b[n], which the release did not cover
	// unless n ends a page.
	addr := int(uintptr(unsafe.Pointer(unsafe.SliceData(t.b))) % uintptr(pageSize))
	t.done = max(t.done, (addr+n)&^(pageSize-1)-addr)
}

// Finish releases the rest of b: the pass has ended.
func (t *Trail) Finish() {
	if t.r == nil {
		return
	}
	t.r.Release(t.b[t.done:])
	t.done = len(t.b)
}

// Close releases the mapping (or drops the fallback buffer). The Region
// and any slices aliased over it must not be used afterwards.
func (r *Region) Close() error {
	data, mapped := r.data, r.mapped
	r.data, r.mapped = nil, false
	if !mapped || data == nil {
		return nil
	}
	return unmap(data)
}
