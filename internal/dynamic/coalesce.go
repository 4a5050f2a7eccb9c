package dynamic

import "ovm/internal/obs"

// Coalescing: the async update pipeline accepts batches faster than it
// repairs them, so by the time the applier picks the queue up there are
// usually several raw batches waiting. Repair cost is dominated by the
// number of epochs repaired, not the number of ops inside each epoch, so
// merging queued batches into fewer "super-batches" is the pipeline's main
// throughput lever. The merge must be *exact*: the serving contract says a
// restarted daemon replaying the raw persisted log reaches byte-identical
// state, so a coalesced apply may only be used where it provably produces
// the same bytes as replaying the raw batches one by one.
//
// # Equivalence proof
//
// Artifacts (walk sets and sketches) are byte-determined by
// the system they are built on: the repair contract (see the package
// comment) makes repairing after a batch byte-identical to a from-scratch
// rebuild on the mutated system, so repairing once after a super-batch and
// repairing after each raw batch both equal a rebuild on the *final*
// system. Equivalence therefore reduces to: ApplySystem(sys, super) must
// produce the same bytes as ApplySystem over the raw batches in order.
//
// ApplySystem splits a batch into graph deltas and vector edits, which
// commute with each other because they touch disjoint state:
//
//   - Vector edits (set_opinion / set_stubbornness) are plain positional
//     assignments applied in order; the last write to a (kind, candidate,
//     node) slot wins and no op ever reads a vector value. Dropping every
//     assignment that a later assignment to the same slot overwrites is
//     exact, across batch boundaries.
//
//   - Graph deltas are grouped by destination column. graph.ApplyDeltas
//     reads the column's *current normalized* weights as the raw measure,
//     applies the column's ops in order, and renormalizes the column once
//     per call. Merging two batches that both touch column v changes the
//     bytes: sequential replay renormalizes v twice (the second batch's
//     ops read the once-renormalized weights), the merged apply
//     renormalizes once — same measure up to FP rounding, different bits.
//     But if every touched column is touched by exactly ONE of the merged
//     batches, that column's op sequence, the weights it reads, and its
//     single renormalization are identical under merge, and untouched
//     columns are copied verbatim. So batches merge exactly iff their
//     edge-touched destination-column sets are pairwise disjoint.
//
//   - Within one batch, a set_weight on edge e that a later set_weight on
//     e overwrites is dead: DeltaSet replaces the working value without
//     reading it, an intervening add_edge's sum is itself overwritten, and
//     the column stays in the touched set either way. It may be dropped
//     unless a remove_edge of e sits between them (the remove's
//     missing-edge check may depend on the insert). Cross-batch this case
//     cannot arise inside a super-batch: same edge ⇒ same column ⇒ the
//     batches were never merged.
//
// What is deliberately NOT coalesced: add_edge/remove_edge "cancellation"
// (dropping an add whose edge a later batch removes). Sequential replay
// renormalizes the column at the intermediate state, rescaling the
// *sibling* edges' weights in FP; skipping the intermediate state is not
// bit-exact, so cancellation would break the replay contract. Those ops
// still coalesce at the batch level whenever the disjoint-column rule
// allows the merge.
//
// coalesce_test.go pins both halves: merged applies are byte-identical to
// sequential replay on the system (CSR arrays and vectors compared bitwise)
// and end-to-end through repair + selection across all five scores.

var coalescedOps = obs.NewCounter("ovm_dynamic_coalesced_ops_total",
	"Mutation ops elided by update coalescing (dead vector writes and overwritten set_weights)")

// CoalescedRun is one super-batch plus the raw batches it replaces. The
// super-batch advances the epoch by len(Raw): the raw batches are what the
// update log persists, the super-batch is what the applier repairs with.
type CoalescedRun struct {
	// Super is the merged batch; applying it yields byte-identical state
	// to replaying Raw in order.
	Super Batch
	// Raw holds the original batches, in acceptance order.
	Raw []Batch
}

// Coalesce greedily merges consecutive batches into runs under the exact-
// equivalence rules proven above: a batch joins the current run only while
// the run's edge-touched destination columns stay disjoint from its own and
// the merged op count stays within maxOps (maxOps <= 0 means unbounded; a
// single oversized batch still forms its own run). Within each run, dead
// vector writes and overwritten set_weights are elided.
func Coalesce(batches []Batch, maxOps int) []CoalescedRun {
	var runs []CoalescedRun
	var cols map[int32]struct{} // edge-touched destination columns of the open run
	for _, b := range batches {
		bcols := edgeColumns(b)
		n := len(runs)
		if n > 0 && disjoint(cols, bcols) &&
			(maxOps <= 0 || len(runs[n-1].Super)+len(b) <= maxOps) {
			run := &runs[n-1]
			run.Super = append(run.Super, b...)
			run.Raw = append(run.Raw, b)
			if cols == nil {
				cols = bcols
			} else {
				for c := range bcols {
					cols[c] = struct{}{}
				}
			}
			continue
		}
		runs = append(runs, CoalescedRun{
			Super: append(Batch(nil), b...),
			Raw:   []Batch{b},
		})
		cols = bcols
	}
	var elided int
	for i := range runs {
		before := len(runs[i].Super)
		runs[i].Super = elideDeadOps(runs[i].Super)
		elided += before - len(runs[i].Super)
	}
	if elided > 0 && obs.CostEnabled() {
		coalescedOps.Add(int64(elided))
	}
	return runs
}

// CoalescedOps reports how many ops a set of runs elided relative to the
// raw batches they replace.
func CoalescedOps(runs []CoalescedRun) int {
	var raw, super int
	for _, r := range runs {
		super += len(r.Super)
		for _, b := range r.Raw {
			raw += len(b)
		}
	}
	return raw - super
}

// edgeColumns returns the destination columns a batch's edge ops touch.
func edgeColumns(b Batch) map[int32]struct{} {
	var cols map[int32]struct{}
	for _, op := range b {
		switch op.Kind {
		case OpAddEdge, OpRemoveEdge, OpSetWeight:
			if cols == nil {
				cols = make(map[int32]struct{})
			}
			cols[op.To] = struct{}{}
		}
	}
	return cols
}

func disjoint(a, b map[int32]struct{}) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for k := range a {
		if _, ok := b[k]; ok {
			return false
		}
	}
	return true
}

type edgeKey struct{ from, to int32 }
type vecKey struct {
	kind OpKind
	cand int
	node int32
}

// elideDeadOps drops the provably dead ops from a merged batch: vector
// assignments overwritten by a later assignment to the same slot, and
// set_weights overwritten by a later set_weight on the same edge with no
// intervening remove_edge of that edge. Op order is otherwise preserved.
func elideDeadOps(b Batch) Batch {
	lastVec := make(map[vecKey]int)  // slot -> index of the final write
	lastSet := make(map[edgeKey]int) // edge -> index of the final set_weight
	barrier := make(map[edgeKey]int) // edge -> index of the last remove_edge
	for i, op := range b {
		switch op.Kind {
		case OpSetOpinion, OpSetStubbornness:
			lastVec[vecKey{op.Kind, op.Cand, op.Node}] = i
		case OpSetWeight:
			lastSet[edgeKey{op.From, op.To}] = i
		case OpRemoveEdge:
			barrier[edgeKey{op.From, op.To}] = i
		}
	}
	out := b[:0:0]
	for i, op := range b {
		switch op.Kind {
		case OpSetOpinion, OpSetStubbornness:
			if lastVec[vecKey{op.Kind, op.Cand, op.Node}] != i {
				continue // a later write to the same slot wins
			}
		case OpSetWeight:
			k := edgeKey{op.From, op.To}
			// Dead iff a later set_weight exists and no remove_edge of
			// this edge sits after this op (a remove between two sets
			// must still see the first set's insert; conservatively any
			// later remove keeps the op).
			ri, removed := barrier[k]
			if lastSet[k] != i && (!removed || ri < i) {
				continue
			}
		}
		out = append(out, op)
	}
	return out
}
