// Package binio holds the little-endian primitive codec of the index
// container (internal/serialize): fixed-width integer/float writers and
// readers for its manifest, whose bulk variant allocates in bounded chunks,
// so a corrupted length field fails on the truncated stream instead of
// attempting a huge upfront allocation, and (alias.go) the zero-copy views
// of its array sections.
package binio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Chunk bounds per-read allocations for the bulk readers.
const Chunk = 1 << 20

// WriteU32 writes one little-endian uint32.
func WriteU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

// WriteU64 writes one little-endian uint64.
func WriteU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

// WriteI64 writes one little-endian int64 (two's complement).
func WriteI64(w io.Writer, v int64) error { return WriteU64(w, uint64(v)) }

// WriteF64 writes one little-endian float64 (IEEE-754 bits).
func WriteF64(w io.Writer, v float64) error { return WriteU64(w, math.Float64bits(v)) }

// WriteI32s writes the raw little-endian payload of xs (no length prefix).
func WriteI32s(w io.Writer, xs []int32) error {
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

// ReadU32 reads one little-endian uint32.
func ReadU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// ReadU64 reads one little-endian uint64.
func ReadU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// ReadI64 reads one little-endian int64.
func ReadI64(r io.Reader) (int64, error) {
	v, err := ReadU64(r)
	return int64(v), err
}

// ReadF64 reads one little-endian float64.
func ReadF64(r io.Reader) (float64, error) {
	v, err := ReadU64(r)
	return math.Float64frombits(v), err
}

// ReadI32s reads exactly n little-endian int32 values, allocating in
// Chunk-bounded pieces.
func ReadI32s(r io.Reader, n int) ([]int32, error) {
	out := make([]int32, 0, min(n, Chunk))
	buf := make([]byte, 4*min(n, Chunk))
	for len(out) < n {
		c := min(n-len(out), Chunk)
		if _, err := io.ReadFull(r, buf[:4*c]); err != nil {
			return nil, fmt.Errorf("binio: payload truncated: %w", err)
		}
		for i := 0; i < c; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	return out, nil
}
