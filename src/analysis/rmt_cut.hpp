// analysis/rmt_cut.hpp — the RMT-cut of Definition 3 and its exact decider.
//
//   Let C = C₁ ∪ C₂ be a cut in G partitioning V∖C into A, B' ≠ ∅ with
//   D ∈ A, R ∈ B', and let B be the connected component of R. C is an
//   RMT-cut iff C₁ ∈ Z and C₂ ∩ V(γ(B)) ∈ Z_B.
//
// Theorems 3 + 5: an RMT-cut exists iff *no* safe-and-resilient RMT
// algorithm exists for the instance — so this decider *is* the
// solvability test for the partial knowledge model.
//
// Exactness via two WLOG reductions (both from monotonicity):
//   1. It suffices to scan cuts of the form C = N(B) for connected B ∋ R
//      with D ∉ B ∪ N(B): if (C, C₁, C₂) qualifies with R-component B,
//      then N(B) ⊆ C and the restricted split (N(B)∩C₁, N(B)∩C₂) also
//      qualifies (subsets stay admissible in Z and in the monotone Z_B).
//   2. It suffices to try C₁ = N(B) ∩ M for each *maximal* M ∈ Z: any
//      admissible C₁ is inside some M, and shrinking C₂ to N(B)∖M only
//      helps.
// The scan is exponential in |G| (connected-subset enumeration) — the
// objects quantified over are exponential; instance sizes are guarded.
// The scan itself is the search shared with Definition 7
// (analysis/cut_search.hpp); this decider supplies its per-node groups.
#pragma once

#include <optional>

#include "analysis/cut_search.hpp"
#include "instance/instance.hpp"

namespace rmt::analysis {

/// A concrete RMT-cut, returned as proof of infeasibility.
using RmtCutWitness = CutWitness;

/// Upper bound on instance size accepted by the exact deciders.
inline constexpr std::size_t kMaxExactNodes = 26;

/// Find an RMT-cut, or nullopt if none exists (⇒ RMT-PKA succeeds, Thm 5).
/// Requires num_players() <= kMaxExactNodes.
///
/// Compiles each node's constraint Z^{V(γ(v))} over V(γ(v)) once, then
/// runs the incremental cut search: Z_B and N(B) follow the
/// connected-subset DFS by single-node push/pop deltas instead of per-B
/// rebuilds, and every set it touches is inline (NodeSet SBO) at
/// kMaxExactNodes — the hot loop never allocates (obs counter
/// `nodeset.heap_spills` stays 0) and never rebuilds a joint structure
/// (`rmt_cut.joint_rebuilds` stays 0).
std::optional<RmtCutWitness> find_rmt_cut(const Instance& inst);

/// The straightforward decider: rebuilds Z_B, V(γ(B)) and N(B) from scratch
/// for every enumerated B. Same witnesses as find_rmt_cut by construction —
/// kept as the cross-check baseline (tests assert bit-identical answers;
/// bench_decider_hotpath measures the gap as BENCH_decider.json).
std::optional<RmtCutWitness> find_rmt_cut_reference(const Instance& inst);

bool rmt_cut_exists(const Instance& inst);

}  // namespace rmt::analysis
