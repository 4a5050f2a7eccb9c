// Package walks is the reverse-random-walk substrate shared by the RW (§V)
// and RS (§VI) seed selectors.
//
// A t-step reverse random walk from node u (Direct Generation, §V-A) moves
// through the reverse influence graph: at the current node v it terminates
// with probability d_v (the stubbornness) and otherwise steps to an
// in-neighbor sampled with probability equal to the in-edge weight, for at
// most t steps. The initial opinion of the walk's end node is an unbiased
// estimate of u's opinion at horizon t (Theorem 8).
//
// Seed sets are applied by Post-Generation Truncation (§V-B): walks are
// generated once with no seeds and later truncated at the first occurrence
// of a seed node, whose initial opinion is pinned to 1. Theorem 9 shows the
// truncated estimate remains unbiased, so the same walk set serves every
// round of the greedy algorithm.
//
// The package stores walks in flat arrays grouped by start node ("owner")
// plus a node → walk postings index (EnsureIndex), maintains per-owner
// opinion estimates, and implements incremental greedy selection: a seed
// truncates only the walks in its postings, and marginal gains are cached
// and re-derived only along the affected walks, so a selection round costs
// O(elements on the chosen seed's walks) instead of the full O(t·Σλ_v)
// rescan — including the rank-based extensions needed by the plurality
// family and the Copeland score. That is the only selection loop. The
// reference its output is compared against, bit for bit, is the test-only
// package walksref: the same greedy written from the definition (a rescan of
// every walk for every candidate), sharing no index, cache or scratch with
// this package.
//
// Generation, truncation, estimate refresh, and the gain scans all run on
// the internal/engine worker pool. Each owner draws from its own
// sampling.Stream substream and shard geometry ignores the worker count,
// so every Set, estimate, and greedy pick is bit-identical across
// Parallelism settings.
//
// # Draws and substream families
//
// RS is RW with a different walk plan (§VI-A, footnote 6): the same t-step
// reverse walks, started at θ uniformly sampled nodes with λ_v = 1 per
// sample instead of at every node with λ_v planned by Theorems 10–12, and
// Algorithm 5's greedy is Algorithm 4's over that set with owner weights
// m_v·n/θ instead of 1. A Draw carries exactly that difference: the substream
// family and seed, and Theta (sampled starts) or Lambda / an explicit plan
// (planned starts). Draw.Generate and Draw.GeneratePlan draw the set,
// Draw.Repair rebuilds it after a graph mutation from the stream it was
// drawn with, Draw.Weights gives the greedy its owner weights and
// Draw.Greedy runs it. Packages rwalk and sketch keep what is theirs (how
// many walks: the γ* pilot, the θ search) and say how their set is drawn with
// rwalk.Draw and sketch.Draw; the service keeps one kind of walk artifact
// with its Draw as data.
//
// Owner v of a set drawn from (family, seed) consumes
// Stream{seed, family}.Sub(walkStream).At(v), and sampled starts come from
// .Sub(startStream).At(0), so the family id decides every byte of the set.
// The ids are part of every index file on disk and are defined once:
//
//	101        FamilyRW       Algorithm 4's walk set (rwalk.Draw)
//	103        FamilyRWPilot  the γ* pilot walks of §V-C
//	211        FamilyRS       Algorithm 5's sketch set (sketch.Draw)
//	223 + ⌊x⌋  FamilyRSOpt    EstimateOPT's test set at threshold x
//	701        im.RRStream    IMM's RR sets (package im; listed for the map:
//	                          IMM and the golden test draw from it, no index
//	                          file stores it)
//
// TestGoldenBytesAcrossCommits pins the bytes each of them draws on a fixed
// graph and seed, against digests recorded before the ids were named.
//
// # Storage
//
// A Set is an immutable base plus an immutable overlay. The base is what a
// load, a generation or a fold produced: flat walk arrays grouped by owner
// and a postings index, heap or mapped from an index file, raw CSR or
// compact — whatever backing they arrived in. Nothing writes to it again.
// The overlay holds the owners repairs have replaced since: their
// regenerated walks at their original walk ids, those walks' postings, and a
// bitmap of the replaced walks that masks the base's stale postings.
//
// Draw.Repair finds the invalid owners from the touched nodes' postings,
// regenerates them from their substreams, and builds the next overlay on
// top of the previous one, sharing every owner entry it does not replace; a
// repair that invalidates nothing returns its input. It writes O(n +
// overlay postings + walks/64) bytes and copies no base array, so a mapped base
// stays mapped. Once an overlay holds more than 1/foldShare of the walks
// (OverlayFull) it is folded, and a deployment has exactly one fold
// trigger for that:
//   - without an index file behind the set (library use, tests, a daemon
//     that never checkpoints), Repair folds base + overlay into a fresh heap
//     base;
//   - with one, RepairOverlay never folds: the set's owner writes it out as
//     a checkpoint and serves the file it wrote as the next base, with an
//     overlay of only what changed since (Set.Rebase moves a later repair
//     of the checkpointed set onto it). The heap then holds overlays only.
//     If a checkpoint fails, the owner goes back to Repair until one
//     installs, so a failing disk costs what a file-less set does.
//
// Readers see one set: Set.walk / Set.ownerWalks read a walk from wherever
// it lives, and Set.postings merges the base's live postings with the
// overlay's in ascending walk id. Snapshot and IndexSnapshot fold the two
// into the flat arrays and postings a from-scratch generation of the same
// set would have. An index writer streams the same bytes without building
// them: EachNodes, EachOff and CompactPostings hand out base and overlay in
// walk-id order, and the postings are encoded node by node as merged. A
// pristine set (loaded, generated or repaired) carries no truncation state;
// Clone, AddSeed and NewEstimator create it.
//
// # Fold contract
//
// Floating-point sums are not associative, so "the same gain" means the
// same operands added in the same grouping and order. Walk order is walk-id
// order, and an overlay presents every replaced walk at its original walk
// id, so a repaired set feeds these rules the operands a rebuilt one would,
// in the same order. Write rem(w) =
// 1 − Y(w) for a walk w of owner i with λ_i walks and weight ω_i; w is live
// while rem(w) > 0 and contains u when u lies on its active prefix. The
// estimator re-derives what it caches by these rules; walksref computes
// everything afresh each round by the same rules. Every sum starts from 0.
//
//  1. Owner estimate: b̂_i = (Σ Y(w), i's walks in walk order) / λ_i.
//  2. Cumulative gain of u: ω_i·rem(w)/λ_i over the live walks containing
//     u, summed in walk order inside each scan shard (ScanShardBounds),
//     the shard sums then added in ascending shard order. Only gains > 0
//     compete.
//  3. Rank-based entry of (u, i): δ = Σ rem(w)/λ_i over i's live walks
//     containing u, in walk order. A positional gain is
//     Σ ω_i·(contrib(b̂_i+δ) − contrib(b̂_i)) over u's entries, owners
//     ascending. Only candidates with an entry compete.
//  4. Copeland: the weighted win/loss counters are folded over all owners
//     ascending; a candidate's gain adjusts a copy of them over its entries,
//     owners then competitors ascending, subtracting the old comparison
//     before adding the new, and recounts the victories.
//  5. The pick is the largest gain, ties to the lowest node id; when no
//     candidate competes it is the lowest non-seed id at gain 0.
package walks
