//go:build !linux

package mmapio

import "os"

func openFile(f *os.File, size int) (*Region, error) { return readFallback(f, size) }

func unmap(data []byte) error { return nil }

func dropPages(data []byte) {}
