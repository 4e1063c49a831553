#include "analysis/zpp_cut.hpp"

#include <vector>

#include "analysis/rmt_cut.hpp"
#include "graph/cuts.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt::analysis {

namespace {

std::vector<AdversaryStructure> local_structures(const Instance& inst) {
  std::vector<AdversaryStructure> local_z(inst.graph().capacity());
  inst.graph().nodes().for_each([&](NodeId v) { local_z[v] = inst.local_structure(v); });
  return local_z;
}

}  // namespace

std::optional<ZppCutWitness> find_rmt_zpp_cut(const Instance& inst) {
  RMT_OBS_SCOPE("zpp_cut.find");
  RMT_TRACE_SPAN("zpp_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_zpp_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  // Node u's plausibility constraint "N(u) ∩ C₂ ∈ Z_u" as forbidden rows:
  // with M ranging over the maximal sets of Z_u, N(u) ∩ C₂ ⊆ M ⇔
  // C₂ ∩ (N(u) ∖ M) = ∅ (N(u) ∩ C₂ ⊆ N(u) makes the unrestricted maximal
  // sets valid here).
  const Graph& g = inst.graph();
  std::vector<CompiledGroup> groups(g.capacity());
  g.nodes().for_each([&](NodeId v) {
    groups[v] = CompiledGroup::complement(g.neighbors(v), inst.local_structure(v).maximal_sets());
  });
  return search_cut(inst, groups);
}

std::optional<ZppCutWitness> find_rmt_zpp_cut_reference(const Instance& inst) {
  RMT_OBS_SCOPE("zpp_cut.find");
  RMT_TRACE_SPAN("zpp_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_zpp_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  const Graph& g = inst.graph();
  const NodeId d = inst.dealer();
  const NodeId r = inst.receiver();
  const std::vector<AdversaryStructure> local_z = local_structures(inst);

  std::optional<ZppCutWitness> witness;
  enumerate_connected_subsets(g, r, NodeSet::single(d), [&](const NodeSet& b) {
    const NodeSet cut = g.boundary(b);
    if (cut.contains(d)) return true;
    for (const NodeSet& m : inst.adversary().maximal_sets()) {
      const NodeSet c2 = cut - m;
      bool plausible = true;
      b.for_each([&](NodeId u) {
        if (plausible && !local_z[u].contains(g.neighbors(u) & c2)) plausible = false;
      });
      if (plausible) {
        witness = ZppCutWitness{cut & m, c2, b};
        return false;
      }
    }
    return true;
  });
  return witness;
}

bool rmt_zpp_cut_exists(const Instance& inst) { return find_rmt_zpp_cut(inst).has_value(); }

bool zpp_cut_exists_broadcast(const Graph& g, const AdversaryStructure& z, NodeId dealer) {
  const NodeSet corruptible = z.support();
  bool exists = false;
  g.nodes().for_each([&](NodeId r) {
    if (exists || r == dealer || corruptible.contains(r)) return;
    const Instance inst = Instance::ad_hoc(g, z, dealer, r);
    if (rmt_zpp_cut_exists(inst)) exists = true;
  });
  return exists;
}

}  // namespace rmt::analysis
