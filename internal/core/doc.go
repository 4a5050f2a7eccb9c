// Package core implements the paper's primary contribution: seed selection
// for voting-based opinion maximization at a finite time horizon.
//
// It provides:
//
//   - Problem (§II-C): the FJ-Vote instance definition;
//   - the greedy framework of Algorithm 1: two drivers, Greedy and its
//     CELF lazy variant GreedyCELF, over one Objective interface with two
//     implementations, the exact direct-matrix (DM) opinion computation of
//     §III-C (DMObjective) and the sandwich upper bounds' t-hop coverage
//     (GreedyCoverage). Every DM objective of a selection reads one
//     Instance's competitor rows;
//   - the sandwich approximation of Algorithm 3 (§IV) with the paper's
//     submodular bound constructions — the favorable users set V_q^(t)
//     (Definition 1), the reachable users set N_S^(t) (Definition 2), and
//     the weakly favorable users set U_q^(t) (Definition 5) — yielding
//     lower/upper bound surrogates for the positional-p-approval family and
//     an upper bound for Copeland;
//   - Algorithm 2: binary search for FJ-Vote-Win (minimum seeds to win).
//
// The random-walk (RW, §V) and sketch (RS, §VI) accelerations live in the
// sibling packages rwalk and sketch; they plug into the same Problem type.
package core
