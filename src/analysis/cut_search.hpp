// analysis/cut_search.hpp — the one incremental cut search behind the
// exact deciders of Definition 3 (rmt_cut.hpp) and Definition 7
// (zpp_cut.hpp).
//
// Both definitions range over the same objects — a connected B ∋ R with
// D ∉ B ∪ N(B), the cut C = N(B), and C₁ = C ∩ M for a maximal M ∈ Z (the
// two WLOG reductions in rmt_cut.hpp) — and differ only in the per-node
// constraint that C₂ = C ∖ M must meet:
//
//   Def. 3:  C₂ ∩ V(γ(B)) ∈ Z_B = ⊕_{v∈B} Z^{V(γ(v))}, i.e. (conjunction
//            form, joint.hpp) ∀v ∈ B: C₂ ∩ V(γ(v)) ∈ Z^{V(γ(v))};
//   Def. 7:  ∀u ∈ B: N(u) ∩ C₂ ∈ Z_u.
//
// Each decider compiles its constraint once per node into a CompiledGroup
// of forbidden rows (bit_matrix.hpp): C₂ meets node v's constraint iff
// some row of group v is disjoint from C₂. Every row of group v lies
// inside V(γ(v)) (Def. 3) or N(v) (Def. 7), so probing C₂ answers exactly
// as probing its slice would — the search needs no per-definition mask.
#pragma once

#include <optional>
#include <vector>

#include "adversary/bit_matrix.hpp"
#include "instance/instance.hpp"

namespace rmt::analysis {

/// A concrete cut C = C₁ ∪ C₂ with the receiver's component B — the
/// witness both deciders return (RmtCutWitness, ZppCutWitness).
struct CutWitness {
  NodeSet c1;  ///< the part covered by an admissible set (C₁ ∈ Z)
  NodeSet c2;  ///< the part every node of B cannot rule out
  NodeSet b;   ///< the connected component of R after removing C₁ ∪ C₂
};

/// The first cut in scan order: connected B ∋ R (D ∉ B) in enumeration
/// order, then the maximal sets M ∈ Z in canonical order; returns the
/// first (B, M) whose C₂ = N(B) ∖ M meets node_groups[v] for every v ∈ B.
/// The group stack, N(B) and a per-B memo of distinct C₂ answers follow
/// the connected-subset DFS by push/pop deltas; allocation-free at
/// kMaxExactNodes. Callers check the instance size.
std::optional<CutWitness> search_cut(const Instance& inst,
                                     const std::vector<CompiledGroup>& node_groups);

}  // namespace rmt::analysis
