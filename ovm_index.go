package ovm

import (
	"io"

	"ovm/internal/serialize"
	"ovm/internal/service"
)

// Index bundles an opinion system with precomputed query-serving artifacts
// (sketch sets, walk sets, RR-set collections). Build one with BuildIndex
// and persist it with WriteIndex: the file is the one ovmd -build-index
// writes, which ovmd -index maps zero-copy. ReadIndex loads it onto the
// heap. Queries whose parameters match an artifact reuse it and return
// results bit-identical to from-scratch computation.
type Index = serialize.Index

// IndexBuildOptions selects which artifacts BuildIndex precomputes and the
// (target, horizon, seed) they are tied to.
type IndexBuildOptions = service.BuildOptions

// IndexFormatVersion is the one on-disk format version: WriteIndex writes
// it, and ReadIndex refuses any other with a "rebuild" error.
const IndexFormatVersion = serialize.IndexFormatVersion

// BuildIndex precomputes serving artifacts for sys using the same
// deterministic substream families the live selection methods consume, so
// artifact reuse never changes an answer.
func BuildIndex(sys *System, o IndexBuildOptions) (*Index, error) {
	return service.BuildIndex(sys, o)
}

// WriteIndex persists an index in the section-table binary format (every
// section checksummed, postings indexes stored compact); see the README for
// the layout.
func WriteIndex(w io.Writer, idx *Index) error {
	return serialize.WriteIndexV3(w, idx, serialize.V3Options{})
}

// ReadIndex loads and validates an index written by WriteIndex or ovmd
// -build-index.
func ReadIndex(r io.Reader) (*Index, error) { return serialize.ReadIndex(r) }
