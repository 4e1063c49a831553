#include "analysis/rmt_cut.hpp"

#include <vector>

#include "adversary/oplus.hpp"
#include "graph/cuts.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt::analysis {

namespace {

obs::Counter* joint_rebuild_counter() {
  // Looked up per decider call, never cached across calls: Registry::reset()
  // (bench sections) invalidates metric handles.
  return obs::enabled() ? &obs::Registry::global().counter("rmt_cut.joint_rebuilds") : nullptr;
}

}  // namespace

std::optional<RmtCutWitness> find_rmt_cut(const Instance& inst) {
  RMT_OBS_SCOPE("rmt_cut.find");
  RMT_TRACE_SPAN("rmt_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  // Node v's share of Z_B: Z^{V(γ(v))} over V(γ(v)), compiled once so no
  // restriction runs inside the search. Restricting the global Z directly
  // equals local_structure(v) by definition and costs one restriction
  // instead of two.
  std::vector<CompiledGroup> groups(inst.graph().capacity());
  inst.graph().nodes().for_each([&](NodeId v) {
    groups[v] = RestrictedStructure(inst.adversary(), inst.gamma().view_nodes(v)).compiled();
  });
  return search_cut(inst, groups);
}

std::optional<RmtCutWitness> find_rmt_cut_reference(const Instance& inst) {
  RMT_OBS_SCOPE("rmt_cut.find");
  RMT_TRACE_SPAN("rmt_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  const Graph& g = inst.graph();
  const NodeId d = inst.dealer();
  const NodeId r = inst.receiver();

  // Local structures are instance-wide constants; compute them once, not
  // once per enumerated component.
  std::vector<AdversaryStructure> local_z(g.capacity());
  g.nodes().for_each([&](NodeId v) { local_z[v] = inst.local_structure(v); });
  obs::Counter* rebuilds = joint_rebuild_counter();

  std::optional<RmtCutWitness> witness;
  enumerate_connected_subsets(g, r, NodeSet::single(d), [&](const NodeSet& b) {
    const NodeSet cut = g.boundary(b);
    if (cut.contains(d)) return true;  // D may not sit inside the cut
    // Z_B membership spelled out per the definition: x ∈ ⊕_{v∈B} Z_v^{Γ(v)}
    // iff every node's slice x ∩ Γ(v) lies in Z_v^{Γ(v)}. The slice is a
    // subset of Γ(v), so membership in the restriction equals membership in
    // Z_v itself — no restricted structures, no conjunction compilation;
    // this is the oracle the incremental decider is checked against.
    if (rebuilds) rebuilds->inc();  // one fresh conjunction evaluated per B
    for (const NodeSet& m : inst.adversary().maximal_sets()) {
      const NodeSet c2 = cut - m;
      bool member = true;
      b.for_each([&](NodeId v) {
        if (member && !local_z[v].contains(c2 & inst.gamma().view_nodes(v))) member = false;
      });
      if (member) {
        witness = RmtCutWitness{cut & m, c2, b};
        return false;  // stop enumeration
      }
    }
    return true;
  });
  return witness;
}

bool rmt_cut_exists(const Instance& inst) { return find_rmt_cut(inst).has_value(); }

}  // namespace rmt::analysis
