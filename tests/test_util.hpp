// tests/test_util.hpp — shared builders for the test suite.
#pragma once

#include <vector>

#include "adversary/threshold.hpp"
#include "graph/generators.hpp"
#include "instance/instance.hpp"
#include "util/rng.hpp"

namespace rmt::testing {

/// Structure from explicit generator sets (∅ added automatically).
inline AdversaryStructure structure(std::vector<NodeSet> sets) {
  sets.push_back(NodeSet{});
  return AdversaryStructure::from_sets(sets);
}

/// A random instance for property sweeps: connected G(n, p) with D = 0,
/// R = n-1, a random general structure that keeps D and R honest, and the
/// requested knowledge radius (SIZE_MAX = full knowledge, 0 = ad hoc).
inline Instance random_instance(std::size_t n, double edge_p, std::size_t num_sets,
                                std::size_t set_size, std::size_t knowledge, Rng& rng) {
  Graph g = generators::random_connected_gnp(n, edge_p, rng);
  const NodeId d = 0, r = NodeId(n - 1);
  AdversaryStructure z =
      random_structure(g.nodes(), num_sets, set_size, NodeSet{d, r}, rng);
  ViewFunction gamma = (knowledge == SIZE_MAX) ? ViewFunction::full(g)
                       : (knowledge == 0)      ? ViewFunction::ad_hoc(g)
                                               : ViewFunction::k_hop(g, knowledge);
  return Instance(std::move(g), std::move(z), std::move(gamma), d, r);
}

/// A 26-node instance that pins the canonical position of the first
/// qualifying maximal set, for witness-identity tests over antichain
/// widths. D = 0 and R = 1 share the neighbours a = 11 and b = 12; every
/// other node is a leaf of D. The first component the deciders visit is
/// B = {R}, with cut {a, b}. The antichain is `before` pairs of leaves
/// below a, then {a} (canonical index `before`), then {b} when `cover` is
/// set, then `after` pairs of leaves above b. With `cover`, {a} is the
/// first maximal set that qualifies (C₂ = {b}, covered by {b}); without
/// it no maximal set qualifies and every one is probed.
inline Instance antichain_position_instance(std::size_t before, std::size_t after, bool cover) {
  constexpr std::size_t kNodes = 26;
  constexpr NodeId kA = 11, kB = 12;
  Graph g(kNodes);
  g.add_edge(0, kA);
  g.add_edge(0, kB);
  g.add_edge(1, kA);
  g.add_edge(1, kB);
  for (NodeId v = 2; v < kNodes; ++v)
    if (v != kA && v != kB) g.add_edge(0, v);
  // Leaf pairs {i, j} (i < j) within [lo, hi), in canonical (bitmask) order.
  const auto leaf_pairs = [](NodeId lo, NodeId hi, std::size_t count) {
    std::vector<NodeSet> out;
    for (NodeId j = lo + 1; j < hi && out.size() < count; ++j)
      for (NodeId i = lo; i < j && out.size() < count; ++i) out.push_back(NodeSet{i, j});
    return out;
  };
  std::vector<NodeSet> sets = leaf_pairs(2, kA, before);
  sets.push_back(NodeSet{kA});
  if (cover) sets.push_back(NodeSet{kB});
  for (const NodeSet& s : leaf_pairs(kB + 1, NodeId(kNodes), after)) sets.push_back(s);
  return Instance(g, structure(std::move(sets)), ViewFunction::ad_hoc(g), 0, 1);
}

/// (before, after, cover) cases for antichain_position_instance: widths
/// 15, 16, 17 and 33, with the first qualifying set at indices 0, 13..17
/// and 31, or nowhere.
struct AntichainPosition {
  std::size_t before;
  std::size_t after;
  bool cover;
};
inline constexpr AntichainPosition kAntichainPositions[] = {
    {13, 0, true},  {14, 0, true},  {14, 1, true},  {15, 0, true},   {15, 16, true},
    {16, 15, true}, {17, 14, true}, {0, 31, true},  {31, 0, true},   {14, 0, false},
    {15, 0, false}, {16, 0, false}, {16, 16, false}, {32, 0, false},
};

/// Restrict a structure away from `protected_nodes` (e.g. keep the dealer
/// and receiver honest, as the model requires).
inline AdversaryStructure shielding(const AdversaryStructure& z, const NodeSet& all,
                                    const NodeSet& protected_nodes) {
  return z.restricted_to(all - protected_nodes);
}

/// All-bitmask NodeSet over ids [0, n): handy for exhaustive sweeps.
inline NodeSet from_mask(std::size_t mask, std::size_t n) {
  NodeSet s;
  for (std::size_t i = 0; i < n; ++i)
    if ((mask >> i) & 1) s.insert(NodeId(i));
  return s;
}

}  // namespace rmt::testing
