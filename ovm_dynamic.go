package ovm

import (
	"io"

	"ovm/internal/dynamic"
	"ovm/internal/service"
)

// The dynamic-update surface: mutate a live opinion system (edge
// inserts/deletes/re-weights, drifting opinions and stubbornness) and have
// every precomputed serving artifact incrementally repaired —
// byte-identical to a full rebuild of the mutated system at the same seed.
// Serve updates over HTTP with POST /v1/datasets/{name}/updates, or apply
// them offline with ApplyUpdates / ReplayUpdates (the `ovm -updates`
// machinery).
type (
	// UpdateOp is one mutation: an edge op (From/To/W) or an opinion /
	// stubbornness op (Cand/Node/Value). Kind selects the variant.
	UpdateOp = dynamic.Op
	// UpdateBatch is one atomic group of mutations; it bumps the dataset
	// epoch by exactly one.
	UpdateBatch = dynamic.Batch
	// UpdateOpKind names a mutation type.
	UpdateOpKind = dynamic.OpKind
	// UpdateChangeSet reports which nodes a batch touched.
	UpdateChangeSet = dynamic.ChangeSet
	// ApplyUpdatesRequest is the wire form of a dataset update.
	ApplyUpdatesRequest = service.UpdateRequest
	// ApplyUpdatesResponse reports the epoch an accepted update becomes
	// visible at.
	ApplyUpdatesResponse = service.UpdateResponse
)

// The mutation vocabulary (the "op" field of the JSON wire form).
const (
	OpAddEdge         = dynamic.OpAddEdge
	OpRemoveEdge      = dynamic.OpRemoveEdge
	OpSetWeight       = dynamic.OpSetWeight
	OpSetOpinion      = dynamic.OpSetOpinion
	OpSetStubbornness = dynamic.OpSetStubbornness
)

// ApplyUpdates applies one mutation batch to a system, returning the
// mutated system (the input is unchanged) and the change set naming the
// touched nodes.
func ApplyUpdates(sys *System, batch UpdateBatch) (*System, *UpdateChangeSet, error) {
	return dynamic.ApplySystem(sys, batch)
}

// ReplayUpdates applies a sequence of batches (an update log) in order and
// reports the final system plus the distinct touched-node count.
func ReplayUpdates(sys *System, batches []UpdateBatch) (*System, int, error) {
	return dynamic.ReplaySystem(sys, batches)
}

// ReadUpdateBatches parses a JSONL update stream (one batch per line: a
// single op object or an array of ops) — the `ovm -updates` file format.
func ReadUpdateBatches(r io.Reader) ([]UpdateBatch, error) {
	return dynamic.ReadBatches(r)
}
