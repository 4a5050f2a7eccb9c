//go:build linux

package mmapio

import (
	"os"
	"syscall"
)

func openFile(f *os.File, size int) (*Region, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		// Some filesystems refuse mmap; fall back to a heap read so the
		// caller still gets the bytes.
		return readFallback(f, size)
	}
	return &Region{data: data, mapped: true}, nil
}

func unmap(data []byte) error { return syscall.Munmap(data) }

// dropPages drops the page-table entries of page-aligned mapped bytes. On a
// read-only shared file mapping the next read faults the same bytes back in
// from the page cache.
func dropPages(data []byte) { _ = syscall.Madvise(data, syscall.MADV_DONTNEED) }
