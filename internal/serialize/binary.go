// Binary index format: the persistent artifact store behind ovmd's
// load-not-recompute startup. One file bundles a complete opinion system
// (exact CSR graph + per-candidate vectors) with any number of precomputed
// sketch sets and walk sets, each tagged with the generation parameters
// (target, horizon, θ/λ, seed) that make the artifact reusable: a query
// whose parameters match loads the artifact and proceeds bit-identically to
// a from-scratch run.
//
// There is one on-disk format, the section-table layout of v3.go. This file
// holds what is independent of the layout: the Index model and its
// validation, the stream reader, and the update-log codec of the manifest.
package serialize

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"

	"ovm/internal/binio"
	"ovm/internal/dynamic"
	"ovm/internal/opinion"
	"ovm/internal/walks"
)

// IndexFormatVersion is the one on-disk format version this build reads and
// writes. Versions 1 and 2 (the retired streaming layouts) and anything
// newer are refused with ErrUnsupportedVersion, never parsed.
const IndexFormatVersion = 3

// ErrUnsupportedVersion reports an index file whose header is intact but
// names a format version other than IndexFormatVersion. It is not
// corruption: the file is left alone and must be rebuilt.
var ErrUnsupportedVersion = errors.New("unsupported index format version")

const indexMagic = "OVMIDX"

// Sanity caps for declared counts, so corrupted headers error out instead
// of triggering huge allocations.
const (
	maxArtifacts     = 1 << 16
	maxElements      = 1 << 31
	maxNameLen       = 1 << 16
	maxCandidates    = 1 << 16
	maxUpdateBatches = 1 << 20
	maxBatchOps      = 1 << 20
)

// Index bundles an opinion system with its precomputed query-serving
// artifacts. Artifact slices may be empty; Sys is mandatory. Updates is the
// dynamic-update log: batches applied (in order) to the dataset after the
// artifacts were generated — loaders replay them via incremental repair to
// reach the writer's epoch. BaseEpoch is the epoch the stored artifacts
// already embody: 0 for a freshly built index, non-zero after a log
// compaction rebased the artifacts onto the live dataset state; the
// restored dataset's epoch is BaseEpoch + len(Updates).
type Index struct {
	Sys      *opinion.System
	Sketches []*SketchArtifact
	Walks    []*WalkArtifact
	// RRs is always nil: an index holds no RR-set collections (the reader
	// skips those an older file stores, the writer writes none). The field
	// survives only because the frozen benchmark/trace.go names it; the
	// benchmark re-base deletes it.
	RRs       []struct{}
	BaseEpoch int64
	Updates   []dynamic.Batch
}

// SketchArtifact is a sampled reverse-walk sketch set (the RS method's
// precomputation), tagged with the parameters that reproduce it: walks are
// GenerateSampled(target's graph/stub, Horizon, Theta, sketch stream(Seed)).
type SketchArtifact struct {
	Seed    int64
	Target  int
	Horizon int
	Theta   int
	Set     *walks.Snapshot

	// Index optionally carries the node → walk postings index so loaders
	// skip the rebuild.
	Index *walks.IndexSnapshot

	// Live, in place of Set and Index, is a pristine indexed set the writer
	// streams (BuildIndex and ExportIndex produce these); a loaded index
	// never carries one.
	Live *walks.Set
}

// WalkArtifact is a per-node walk set generated with the RW method's
// uniform cumulative plan: Lambda walks from every node at the given
// horizon (Theorem 10's λ, already capped).
type WalkArtifact struct {
	Seed    int64
	Target  int
	Horizon int
	Lambda  int
	Set     *walks.Snapshot

	// Index optionally carries the node → walk postings index.
	Index *walks.IndexSnapshot

	// Live, in place of Set and Index: see SketchArtifact.Live.
	Live *walks.Set
}

// Validate checks the index invariants that do not require replaying
// generation: shapes, ranges, and finite values.
func (idx *Index) Validate() error {
	if idx.Sys == nil {
		return fmt.Errorf("serialize: index has no system")
	}
	for i, a := range idx.Sketches {
		if (a.Set == nil) == (a.Live == nil) {
			return fmt.Errorf("serialize: sketch artifact %d needs exactly one of a walk set snapshot and a live set", i)
		}
		if a.Target < 0 || a.Target >= idx.Sys.R() {
			return fmt.Errorf("serialize: sketch artifact %d targets candidate %d of %d", i, a.Target, idx.Sys.R())
		}
		if a.Horizon < 0 || a.Theta < 1 {
			return fmt.Errorf("serialize: sketch artifact %d has horizon %d, theta %d", i, a.Horizon, a.Theta)
		}
	}
	for i, a := range idx.Walks {
		if (a.Set == nil) == (a.Live == nil) {
			return fmt.Errorf("serialize: walk artifact %d needs exactly one of a walk set snapshot and a live set", i)
		}
		if a.Target < 0 || a.Target >= idx.Sys.R() {
			return fmt.Errorf("serialize: walk artifact %d targets candidate %d of %d", i, a.Target, idx.Sys.R())
		}
		if a.Horizon < 0 || a.Lambda < 1 {
			return fmt.Errorf("serialize: walk artifact %d has horizon %d, lambda %d", i, a.Horizon, a.Lambda)
		}
	}
	if idx.BaseEpoch < 0 {
		return fmt.Errorf("serialize: negative base epoch %d", idx.BaseEpoch)
	}
	for i, b := range idx.Updates {
		if err := b.Validate(idx.Sys.N(), idx.Sys.R()); err != nil {
			return fmt.Errorf("serialize: update batch %d: %w", i, err)
		}
	}
	return nil
}

// ReadIndex reads a whole index file from r and parses it on the heap (the
// zero-copy path is OpenMapped). The returned artifacts are structurally
// validated against the system's graph; restoring them into live walk sets
// (walks.FromSnapshot) performs the deeper invariant checks.
func ReadIndex(r io.Reader) (*Index, error) {
	var data []byte
	var err error
	if sized, ok := r.(interface{ Len() int }); ok {
		// A reader that knows what is left (bytes.Reader, bytes.Buffer) gets
		// one allocation for the image; the parsed arrays alias it.
		data = make([]byte, sized.Len())
		_, err = io.ReadFull(r, data)
	} else {
		data, err = io.ReadAll(r)
	}
	if err != nil {
		return nil, fmt.Errorf("serialize: reading index: %w", err)
	}
	idx, _, err := parseV3(data, false)
	return idx, err
}

// checkSystemFinite rejects NaN/Inf opinion and stubbornness values — they
// would survive a float round-trip and poison every downstream estimate.
func checkSystemFinite(s *opinion.System) error {
	for q := 0; q < s.R(); q++ {
		c := s.Candidate(q)
		for i, v := range c.Init {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("serialize: candidate %q Init[%d] is %v", c.Name, i, v)
			}
		}
		for i, v := range c.Stub {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("serialize: candidate %q Stub[%d] is %v", c.Name, i, v)
			}
		}
	}
	return nil
}

// binReadCount reads a u32 count and bounds it.
func binReadCount(r io.Reader, limit int) (int, error) {
	v, err := binio.ReadU32(r)
	if err != nil {
		return 0, err
	}
	if int64(v) > int64(limit) {
		return 0, fmt.Errorf("declared count %d exceeds limit %d", v, limit)
	}
	return int(v), nil
}

// The fixed one-byte codes of the dynamic op kinds in the manifest's
// update-log section. Codes are append-only: never renumber a released code.
var opKindCodes = map[dynamic.OpKind]uint8{
	dynamic.OpAddEdge:         1,
	dynamic.OpRemoveEdge:      2,
	dynamic.OpSetWeight:       3,
	dynamic.OpSetOpinion:      4,
	dynamic.OpSetStubbornness: 5,
}

var opKindByCode = func() map[uint8]dynamic.OpKind {
	m := make(map[uint8]dynamic.OpKind, len(opKindCodes))
	for k, c := range opKindCodes {
		m[c] = k
	}
	return m
}()

// writeUpdateLog serializes the dynamic-update batches into the manifest.
func writeUpdateLog(w *bytes.Buffer, batches []dynamic.Batch) error {
	if len(batches) > maxUpdateBatches {
		return fmt.Errorf("serialize: %d update batches exceed format limit %d", len(batches), maxUpdateBatches)
	}
	if err := binio.WriteU32(w, uint32(len(batches))); err != nil {
		return err
	}
	for bi, b := range batches {
		if len(b) > maxBatchOps {
			return fmt.Errorf("serialize: update batch %d has %d ops, exceeding format limit %d", bi, len(b), maxBatchOps)
		}
		if err := binio.WriteU32(w, uint32(len(b))); err != nil {
			return err
		}
		for _, op := range b {
			code, ok := opKindCodes[op.Kind]
			if !ok {
				return fmt.Errorf("serialize: update batch %d has unknown op kind %q", bi, op.Kind)
			}
			if err := w.WriteByte(code); err != nil {
				return err
			}
			if err := binio.WriteI32s(w, []int32{op.From, op.To}); err != nil {
				return err
			}
			if err := binio.WriteF64(w, op.W); err != nil {
				return err
			}
			if err := binio.WriteU32(w, uint32(op.Cand)); err != nil {
				return err
			}
			if err := binio.WriteI32s(w, []int32{op.Node}); err != nil {
				return err
			}
			if err := binio.WriteF64(w, op.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// readUpdateLog parses the manifest's update-log section.
func readUpdateLog(r io.Reader) ([]dynamic.Batch, error) {
	numBatches, err := binReadCount(r, maxUpdateBatches)
	if err != nil {
		return nil, fmt.Errorf("serialize: update batch count: %w", err)
	}
	var batches []dynamic.Batch
	for bi := 0; bi < numBatches; bi++ {
		numOps, err := binReadCount(r, maxBatchOps)
		if err != nil {
			return nil, fmt.Errorf("serialize: update batch %d op count: %w", bi, err)
		}
		b := make(dynamic.Batch, 0, numOps)
		for oi := 0; oi < numOps; oi++ {
			var kindBuf [1]byte
			if _, err := io.ReadFull(r, kindBuf[:]); err != nil {
				return nil, fmt.Errorf("serialize: update batch %d op %d: %w", bi, oi, err)
			}
			kind, ok := opKindByCode[kindBuf[0]]
			if !ok {
				return nil, fmt.Errorf("serialize: update batch %d op %d has unknown kind code %d", bi, oi, kindBuf[0])
			}
			op := dynamic.Op{Kind: kind}
			edge, err := binio.ReadI32s(r, 2)
			if err != nil {
				return nil, err
			}
			op.From, op.To = edge[0], edge[1]
			if op.W, err = binio.ReadF64(r); err != nil {
				return nil, err
			}
			cand, err := binio.ReadU32(r)
			if err != nil {
				return nil, err
			}
			op.Cand = int(cand)
			node, err := binio.ReadI32s(r, 1)
			if err != nil {
				return nil, err
			}
			op.Node = node[0]
			if op.Value, err = binio.ReadF64(r); err != nil {
				return nil, err
			}
			b = append(b, op)
		}
		batches = append(batches, b)
	}
	return batches, nil
}
