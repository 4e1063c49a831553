#include "analysis/cut_search.hpp"

#include <utility>

#include "graph/cuts.hpp"

namespace rmt::analysis {

namespace {

inline constexpr std::size_t kMemoSlots = 16;

// Search state, driven by the push/pop enumeration: the compiled-row stack
// and the neighbour union ∪_{v∈B} N(v) (whence N(B) = ∪N(v) ∖ B) follow
// the DFS by single-node deltas. Unions are not invertible, so pop
// restores from a save stack; the stacks are preallocated and every set is
// inline at kMaxExactNodes, so the search never allocates.
struct CutSearch {
  const Graph& g;
  const NodeId d;
  const std::vector<CompiledGroup>& node_groups;
  const std::vector<NodeSet>& zmax;
  ConjunctionRows rows;
  NodeSet nbrs;
  std::vector<NodeSet> nbrs_save;
  // Distinct C₂ = C ∖ M repeat across maximal sets whenever two M miss the
  // (small) cut identically, so the first few distinct answers are kept
  // per B. The memo only short-circuits identical probes: the first
  // qualifying M in canonical order still wins.
  NodeSet seen[kMemoSlots];
  bool ans[kMemoSlots] = {};
  std::optional<CutWitness> witness;

  CutSearch(const Instance& inst, const std::vector<CompiledGroup>& groups)
      : g(inst.graph()),
        d(inst.dealer()),
        node_groups(groups),
        zmax(inst.adversary().maximal_sets()) {
    rows.reserve(g.capacity(), g.capacity());
    nbrs_save.reserve(g.capacity() + 1);
  }

  void push(NodeId v) {
    rows.push_group(node_groups[v]);
    nbrs_save.push_back(nbrs);
    nbrs |= g.neighbors(v);
  }

  void pop(NodeId) {
    rows.pop_group();
    nbrs = std::move(nbrs_save.back());
    nbrs_save.pop_back();
  }

  bool visit(const NodeSet& b) {
    NodeSet cut = nbrs;
    cut -= b;
    if (cut.contains(d)) return true;  // D may not sit inside the cut
    std::size_t nseen = 0;
    for (const NodeSet& m : zmax) {
      NodeSet c2 = cut;
      c2 -= m;
      bool member = false;
      bool cached = false;
      for (std::size_t i = 0; i < nseen; ++i) {
        if (seen[i] == c2) {
          member = ans[i];
          cached = true;
          break;
        }
      }
      if (!cached) {
        member = rows.contains(c2);
        if (nseen < kMemoSlots) {
          seen[nseen] = c2;
          ans[nseen] = member;
          ++nseen;
        }
      }
      if (member) {
        witness = CutWitness{cut & m, std::move(c2), b};
        return false;
      }
    }
    return true;
  }
};

}  // namespace

std::optional<CutWitness> search_cut(const Instance& inst,
                                     const std::vector<CompiledGroup>& node_groups) {
  CutSearch search(inst, node_groups);
  enumerate_connected_subsets_incremental(inst.graph(), inst.receiver(),
                                          NodeSet::single(inst.dealer()), search);
  return std::move(search.witness);
}

}  // namespace rmt::analysis
