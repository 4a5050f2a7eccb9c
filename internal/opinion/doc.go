// Package opinion implements the opinion-diffusion substrate of §II-A:
// the Friedkin–Johnsen (FJ) model
//
//	B_q^(t+1) = B_q^(t) · W_q · (I − D_q) + B_q^(0) · D_q
//
// and its DeGroot special case (D = 0), over column-stochastic influence
// graphs. It provides the seed-application semantics of §II-C (seeding node
// s sets b_qs^(0) = 1 and d_qs = 1), reusable diffusion buffers for the
// greedy evaluators, multi-candidate systems, and per-step opinion-churn
// traces used by the Appendix-B experiment (Fig 18).
//
// Node-wise, one FJ step computes
//
//	b_v ← (1 − d_v) · Σ_u w_uv · b_u  +  d_v · b_v^(0)
//
// which costs O(m) per step via the in-CSR adjacency.
package opinion
