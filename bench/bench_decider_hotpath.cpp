// bench_decider — the allocation-free decider-hot-path acceptance bench:
// seed (per-B rebuild) vs. optimized (incremental push/pop) exact deciders
// on the fig_f4 instance shapes, scaled up to kMaxExactNodes.
//
// Per workload, three rows per decider family:
//   *-seed        — find_rmt_cut_reference / find_rmt_zpp_cut_reference:
//                   rebuilds Z_B, V(γ(B)) and N(B) for every enumerated B;
//   *-incr        — the shipped decider (analysis/cut_search.hpp):
//                   single-node push/pop deltas, precompiled per-node
//                   groups, inline NodeSets throughout;
//   *-incr-scalar — the same with the vector kernels forced off.
//
// The `identical` column is evaluated against the seed witness and is also
// a hard RMT_CHECK: an optimized decider that ever returns a different
// witness fails the emit step, not just the schema check. Timings are
// reported, never asserted — CI runs this as a perf *smoke* (identity),
// and tools/check_bench_json.py enforces the identity column on
// BENCH_decider.json. Wall times are best-of-kReps to damp scheduler noise.
#include <optional>
#include <string>

#include "analysis/rmt_cut.hpp"
#include "analysis/zpp_cut.hpp"
#include "bench_util.hpp"
#include "util/simd.hpp"

namespace {

using namespace rmt;

inline constexpr int kReps = 5;

bool same_witness(const std::optional<analysis::CutWitness>& a,
                  const std::optional<analysis::CutWitness>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->c1 == b->c1 && a->c2 == b->c2 && a->b == b->b;
}

template <typename F>
double best_ms(F&& f) {
  double best = 0;
  for (int i = 0; i < kReps; ++i) {
    const double ms = rmt::bench::time_us(f) / 1000.0;
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rmt;
  using namespace rmt::bench;

  Reporter rep(argc, argv, "bench_decider");
  rep.columns({"family", "n", "structure", "decider", "wall_ms", "speedup", "identical"});

  // One workload = one fig_f4-shaped instance. Both decider families run
  // seed / incremental / forced-scalar on it; every optimized answer is
  // checked bit-for-bit against the seed witness.
  const auto run = [&](const std::string& family, const std::string& zkind,
                       const Instance& inst) {
    const std::uint64_t n = inst.num_players();

    std::optional<analysis::RmtCutWitness> rmt_seed, rmt_incr;
    const double rmt_seed_ms = best_ms([&] { rmt_seed = analysis::find_rmt_cut_reference(inst); });
    const double rmt_incr_ms = best_ms([&] { rmt_incr = analysis::find_rmt_cut(inst); });
    const bool rmt_incr_same = same_witness(rmt_seed, rmt_incr);
    rep.row({family, n, zkind, "rmt-seed", rmt_seed_ms, 1.0, true});
    rep.row({family, n, zkind, "rmt-incr", rmt_incr_ms,
             rmt_incr_ms > 0 ? rmt_seed_ms / rmt_incr_ms : 0.0, rmt_incr_same});
    RMT_CHECK(rmt_incr_same, "bench_decider: " + family + "/" + zkind +
                                 " incremental rmt witness diverged from seed");

    // The incremental decider again with the vector kernels disabled: the
    // scalar reference kernels must give the same witness, at whatever
    // speed. This is the acceptance row for backend identity — the simd
    // shim may only change how fast a boolean is computed, never which.
    {
      const simd::ScopedForceScalar scalar_only;
      std::optional<analysis::RmtCutWitness> rmt_scal;
      const double rmt_scal_ms = best_ms([&] { rmt_scal = analysis::find_rmt_cut(inst); });
      const bool rmt_scal_same = same_witness(rmt_seed, rmt_scal);
      rep.row({family, n, zkind, "rmt-incr-scalar", rmt_scal_ms,
               rmt_scal_ms > 0 ? rmt_seed_ms / rmt_scal_ms : 0.0, rmt_scal_same});
      RMT_CHECK(rmt_scal_same, "bench_decider: " + family + "/" + zkind +
                                   " forced-scalar rmt witness diverged from seed");
    }

    std::optional<analysis::ZppCutWitness> zpp_seed, zpp_incr;
    const double zpp_seed_ms =
        best_ms([&] { zpp_seed = analysis::find_rmt_zpp_cut_reference(inst); });
    const double zpp_incr_ms = best_ms([&] { zpp_incr = analysis::find_rmt_zpp_cut(inst); });
    const bool zpp_incr_same = same_witness(zpp_seed, zpp_incr);
    rep.row({family, n, zkind, "zpp-seed", zpp_seed_ms, 1.0, true});
    rep.row({family, n, zkind, "zpp-incr", zpp_incr_ms,
             zpp_incr_ms > 0 ? zpp_seed_ms / zpp_incr_ms : 0.0, zpp_incr_same});
    RMT_CHECK(zpp_incr_same, "bench_decider: " + family + "/" + zkind +
                                 " incremental zpp witness diverged from seed");
    {
      const simd::ScopedForceScalar scalar_only;
      std::optional<analysis::ZppCutWitness> zpp_scal;
      const double zpp_scal_ms = best_ms([&] { zpp_scal = analysis::find_rmt_zpp_cut(inst); });
      const bool zpp_scal_same = same_witness(zpp_seed, zpp_scal);
      rep.row({family, n, zkind, "zpp-incr-scalar", zpp_scal_ms,
               zpp_scal_ms > 0 ? zpp_seed_ms / zpp_scal_ms : 0.0, zpp_scal_same});
      RMT_CHECK(zpp_scal_same, "bench_decider: " + family + "/" + zkind +
                                   " forced-scalar zpp witness diverged from seed");
    }
  };

  // The fig_f4 workload proper: the exact instance shapes the F4 driver
  // runs (cycles and 3 parallel paths, ad hoc knowledge, trivial structure),
  // scaled to the decider cap n = 26. On these instances *no* RMT-cut
  // exists, so the deciders traverse the entire connected-subset space —
  // the worst case, and the hot path this bench exists to measure. The
  // seed rebuilds Z_B / V(γ(B)) / N(B) for every one of those B; the
  // incremental decider pays one push/pop delta instead.
  for (std::size_t n : {20u, 26u}) {
    const Graph g = generators::cycle_graph(n);
    run("cycle", "trivial (f4)",
        Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, NodeId(n / 2)));
  }
  for (std::size_t h : {6u, 8u}) {
    const Graph g = generators::parallel_paths(3, h);
    run("3-paths", "trivial (f4)",
        Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, NodeId(g.num_nodes() - 1)));
  }

  // The same families under non-trivial adversaries: a 2-threshold over the
  // non-D/R players and a random general antichain, 1-hop knowledge — the
  // partial-knowledge regime the joint-structure machinery exists for.
  // These instances *have* cuts, so the runs are witness-search shaped
  // (setup + a short enumeration prefix); they are identity coverage first,
  // speedup second.
  for (std::size_t n : {20u, 26u}) {
    const Graph g = generators::cycle_graph(n);
    const NodeSet players = g.nodes() - NodeSet{0, NodeId(n / 2)};
    run("cycle", "2-threshold",
        Instance(g, threshold_structure(players, 2), ViewFunction::k_hop(g, 1), 0, NodeId(n / 2)));
    Rng rng(4242 + n);
    run("cycle", "random-8x3",
        Instance(g, random_structure(g.nodes(), 8, 3, NodeSet{0, NodeId(n / 2)}, rng),
                 ViewFunction::k_hop(g, 1), 0, NodeId(n / 2)));
  }
  for (std::size_t h : {6u, 8u}) {
    const Graph g = generators::parallel_paths(3, h);
    const NodeId r = NodeId(g.num_nodes() - 1);
    const NodeSet players = g.nodes() - NodeSet{0, r};
    run("3-paths", "2-threshold",
        Instance(g, threshold_structure(players, 2), ViewFunction::k_hop(g, 1), 0, r));
  }

  rep.finish("DECIDER — seed vs. incremental hot path (identical answers)");
  return 0;
}
