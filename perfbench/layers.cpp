// perfbench/layers.cpp — in-process, per-layer replay of one benchmark
// workload through the public functions of each rmt module.
//
//   perfbench_layers measure --hot FILE --miss FILE --sim FILE --seconds S --jobs N
//                            --batch B --work DIR --trace-out FILE
//                            [--store-dir DIR]
//   perfbench_layers prep-store --hot FILE --dir DIR --filler N
//
// `measure` reads the workload's distinct request lines (rmt.request/1
// JSONL, exactly the bytes run.py sends to rmt_serve: --hot lines are
// served as hits, --miss lines as misses; --sim lines are the simulate
// queries the protocols pass runs), times each layer with spans of
// its own around the library calls, dumps those spans as rmt.trace/1
// JSONL, and prints one JSON object of per-layer metrics on stdout. Each
// pass has a share of --seconds and stops when it is used up (after at
// least one item), walking its inputs in file order, so one seed always
// measures the same inputs first.
//
// `prep-store` writes the disk tier the mixed workload's server recovers:
// the hot set's answers, computed through svc::Engine with the store
// attached, plus N filler records that are never asked for.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/feasibility.hpp"
#include "analysis/rmt_cut.hpp"
#include "analysis/zpp_cut.hpp"
#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "graph/cuts.hpp"
#include "io/serialize.hpp"
#include "net/framing.hpp"
#include "obs/trace.hpp"
#include "protocols/rmt_pka.hpp"
#include "protocols/runner.hpp"
#include "sim/strategies.hpp"
#include "store/store.hpp"
#include "svc/engine.hpp"
#include "svc/instance_key.hpp"
#include "svc/result_cache.hpp"
#include "svc/wire.hpp"
#include "util/simd.hpp"

namespace {

using namespace rmt;
namespace trace = obs::trace;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_layers: %s\n", msg.c_str());
  std::exit(2);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> out;
  if (path.empty()) return out;
  std::ifstream in(path);
  if (!in) die("cannot open " + path);
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) out.push_back(line);
  return out;
}

/// The embedded instance text of a request line, JSON-unescaped (the
/// generator only emits \n, \" and \\ escapes).
std::string instance_text(const std::string& line) {
  const std::string tag = "\"instance\":\"";
  std::size_t i = line.find(tag);
  if (i == std::string::npos) die("request line without an instance");
  std::string out;
  for (i += tag.size(); i < line.size() && line[i] != '"'; ++i) {
    if (line[i] != '\\') {
      out += line[i];
      continue;
    }
    const char c = line[++i];
    out += c == 'n' ? '\n' : c;
  }
  return out;
}

struct Item {
  std::string line;
  std::string text;  ///< the embedded instance text
  svc::wire::ParsedRequest parsed;
  bool hit = false;  ///< served from a warm tier by design
  std::size_t index = 0;  ///< place in the request files
};

/// Span-timed accumulators, one per metric name.
struct Acc {
  double ns = 0;
  std::uint64_t n = 0;
  double mean() const { return n ? ns / double(n) : 0; }
};
std::map<std::string, Acc> g_acc;

/// Run `f` inside a span named `name` and charge its duration to `name`.
template <typename F>
double timed(const char* name, F&& f) {
  trace::Span span(name);
  const std::uint64_t t0 = trace::now_ns();
  f();
  const double ns = double(trace::now_ns() - t0);
  Acc& a = g_acc[name];
  a.ns += ns;
  ++a.n;
  return ns;
}

/// A pass's share of the time budget.
class Budget {
 public:
  explicit Budget(double seconds) : end_(trace::now_ns() + std::uint64_t(seconds * 1e9)) {}
  bool spent() const { return trace::now_ns() >= end_; }

 private:
  std::uint64_t end_;
};

/// Visit items in order until the budget is spent (at least one, at most
/// `rounds` passes over the list).
template <typename T, typename F>
void for_budget(const std::vector<T>& items, double seconds, std::size_t rounds, F&& f) {
  if (items.empty()) return;
  Budget b(seconds);
  for (std::size_t i = 0; i < items.size() * rounds; ++i) {
    if (i > 0 && b.spent()) break;
    f(items[i % items.size()]);
  }
}

/// The strategies gen.py puts in simulate requests (the deterministic
/// ones; rmt_serve maps the same names to the same classes).
std::unique_ptr<sim::AdversaryStrategy> make_strategy(const std::string& name) {
  if (name == "silent") return std::make_unique<sim::SilentStrategy>();
  if (name == "value-flip") return std::make_unique<sim::ValueFlipStrategy>();
  if (name == "two-faced") return std::make_unique<sim::TwoFacedStrategy>();
  die("strategy not in the benchmark's vocabulary: " + name);
}

/// The replica cache's key for one item: its instance key and its place
/// in the request files (every item is a distinct query).
std::string replica_key(const svc::InstanceKey& key, const Item& it) {
  return key.to_hex() + "|" + std::to_string(it.index);
}

/// The layer calls behind one computed answer, each under its own span.
void compute_layers(const svc::Request& req) {
  const Instance& inst = req.instance;
  const bool rmt = req.kind == svc::QueryKind::kDecideRmt || req.kind == svc::QueryKind::kAnalyze;
  const bool zpp = req.kind == svc::QueryKind::kDecideZpp || req.kind == svc::QueryKind::kAnalyze;
  if (rmt) timed("bench.analysis.rmt_cut", [&] { (void)analysis::find_rmt_cut(inst); });
  if (zpp) timed("bench.analysis.zpp_cut", [&] { (void)analysis::find_rmt_zpp_cut(inst); });
  if (req.kind == svc::QueryKind::kAnalyze)
    timed("bench.analysis.full_knowledge", [&] {
      (void)analysis::solvable_full_knowledge(inst.graph(), inst.adversary(), inst.dealer(),
                                              inst.receiver());
    });
  if (req.kind == svc::QueryKind::kSimulate) {
    const svc::SimParams& p = req.params;
    const auto strategy = make_strategy(p.strategy);
    protocols::Outcome out;
    timed("bench.protocols.run_rmt", [&] {
      out = protocols::run_rmt(inst, protocols::RmtPka{}, p.value, p.corrupted, strategy.get(),
                               p.max_rounds);
    });
    g_acc["count.honest_messages"].ns += double(out.stats.honest_messages);
    ++g_acc["count.honest_messages"].n;
  }
}

struct Options {
  std::string hot, miss, sim, store_dir, work, trace_out;
  double seconds = 10;
  std::size_t jobs = 2, batch = 8;
};

int measure(const Options& o) {
  trace::set_enabled(true);
  trace::Recorder::global().set_capacity(1u << 15);

  std::vector<Item> items;
  for (int pass = 0; pass < 2; ++pass)
    for (const std::string& line : read_lines(pass == 0 ? o.hot : o.miss))
      items.push_back(
          Item{line, instance_text(line), svc::wire::parse_request(line), pass == 0, items.size()});
  if (items.empty()) die("no requests");
  std::vector<const Item*> hits, misses, sims;
  for (const Item& it : items) (it.hit ? hits : misses).push_back(&it);
  std::vector<Item> sim_items;
  for (const std::string& line : read_lines(o.sim))
    sim_items.push_back(Item{line, instance_text(line), svc::wire::parse_request(line), false,
                             items.size() + sim_items.size()});
  for (const Item& it : sim_items) sims.push_back(&it);
  // The decider passes run on the workload's misses; a hit-only workload
  // has no misses, so they measure its hot set instead.
  const std::vector<const Item*>& decide_set = misses.empty() ? hits : misses;
  const double s = o.seconds;

  // net: framing over the workload's request bytes, in 4 KiB reads.
  std::string stream;
  for (const Item& it : items) stream += it.line + "\n";
  double framer_ns = 0, framer_bytes = 0;
  {
    Budget b(0.02 * s);
    do {
      framer_ns += timed("bench.net.framer", [&] {
        net::LineFramer f(svc::wire::kMaxRequestBytes);
        net::LineFramer::Frame frame;
        for (std::size_t at = 0; at < stream.size(); at += 4096) {
          f.feed(stream.data() + at, std::min<std::size_t>(4096, stream.size() - at));
          while (f.next(frame)) {
          }
        }
      });
      framer_bytes += double(stream.size());
    } while (!b.spent());
  }

  // svc.wire / io / svc key.
  for_budget(items, 0.04 * s, 50, [&](const Item& it) {
    timed("bench.wire.parse_request", [&] { (void)svc::wire::parse_request(it.line); });
  });
  for_budget(items, 0.04 * s, 50, [&](const Item& it) {
    timed("bench.io.parse_instance", [&] { (void)io::parse_instance_string(it.text); });
  });
  for_budget(items, 0.04 * s, 50, [&](const Item& it) {
    timed("bench.svc.instance_key", [&] { (void)svc::instance_key(it.parsed.request.instance); });
  });

  // Whole in-process request path vs the layer calls it is made of. The
  // hot set is warmed first; misses are served cold. "whole" times
  // parse_request -> Engine::run -> format_response; the replica times
  // the same path's layers one by one. Their difference is what no layer
  // span covers.
  svc::Engine path_engine(nullptr);
  svc::ResultCache replica_cache;
  struct Answer {
    const Item* item;
    svc::Response resp;
    std::string ckey;
  };
  std::vector<Answer> answers;
  for (const Item* it : hits) {
    const svc::Request& req = it->parsed.request;
    svc::Response r = path_engine.run({req})[0];
    const std::string ck = replica_key(svc::instance_key(req.instance), *it);
    replica_cache.put(ck, r.result);
    answers.push_back({it, r, ck});
  }
  double whole_ns = 0, layer_ns = 0;
  {
    std::vector<const Item*> path = hits;
    path.insert(path.end(), misses.begin(), misses.end());
    Budget b(0.12 * s);
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (i > 0 && b.spent()) break;
      const Item& it = *path[i];
      svc::Response resp;
      whole_ns += timed("bench.request.whole", [&] {
        svc::wire::ParsedRequest p = svc::wire::parse_request(it.line);
        resp = path_engine.run({p.request})[0];
        (void)svc::wire::format_response(p.id, resp);
      });
      const std::map<std::string, Acc> before = g_acc;
      timed("bench.request", [&] {
        std::optional<svc::wire::ParsedRequest> p;
        svc::InstanceKey key;
        timed("bench.wire.parse_request", [&] { p = svc::wire::parse_request(it.line); });
        timed("bench.svc.instance_key", [&] { key = svc::instance_key(p->request.instance); });
        const std::string ck = replica_key(key, it);
        std::optional<std::string> got;
        timed(it.hit ? "bench.cache.get_hit" : "bench.cache.get_miss",
              [&] { got = replica_cache.get(ck); });
        if (!got) {
          compute_layers(p->request);
          timed("bench.cache.put", [&] { replica_cache.put(ck, resp.result); });
          answers.push_back({&it, resp, ck});
        }
        timed("bench.wire.format_response",
              [&] { (void)svc::wire::format_response(p->id, resp); });
      });
      for (const auto& [name, acc] : g_acc)
        if (name.rfind("bench.", 0) == 0 && name != "bench.request" &&
            name != "bench.request.whole") {
          auto old = before.find(name);
          layer_ns += acc.ns - (old == before.end() ? 0 : old->second.ns);
        }
    }
  }

  // svc cache and wire formatting over every answer seen so far.
  {
    svc::ResultCache cache;
    for_budget(answers, 0.015 * s, 50, [&](const Answer& a) {
      timed("bench.cache.put", [&] { cache.put(a.ckey, a.resp.result); });
    });
    for_budget(answers, 0.015 * s, 50, [&](const Answer& a) {
      timed("bench.cache.get_hit", [&] { (void)cache.get(a.ckey); });
    });
    for_budget(answers, 0.03 * s, 50, [&](const Answer& a) {
      timed("bench.wire.format_response",
            [&] { (void)svc::wire::format_response(a.item->parsed.id, a.resp); });
    });
  }

  // Engine::run on hit batches of one (the shape rmt_serve's blank-line
  // flush gives a TCP client), tracing on and off in alternating rounds.
  double traced_ns = 0, untraced_ns = 0, run_hits = 0;
  {
    Budget b(0.08 * s);
    for (int round = 0; round < 2 || !b.spent(); ++round) {
      const bool on = round % 2 == 0;
      trace::set_enabled(on);
      const std::uint64_t t0 = trace::now_ns();
      for (const Answer& a : answers) (void)path_engine.run({a.item->parsed.request});
      (on ? traced_ns : untraced_ns) += double(trace::now_ns() - t0);
      if (on) run_hits += double(answers.size());
      if (round > 200) break;
    }
    trace::set_enabled(true);
  }

  // store: appends and verified reads on a fresh log, then recovery of the
  // prepared log (or of the fresh one when the workload has no disk tier).
  {
    const std::string dir = o.work + "/layers-store";
    std::filesystem::remove_all(dir);
    {
      store::Options so;
      so.dir = dir;
      store::Store st(so);
      for_budget(answers, 0.02 * s, 1,
                 [&](const Answer& a) { timed("bench.store.put", [&] { st.put(a.ckey, a.resp.result); }); });
      for_budget(answers, 0.02 * s, 50,
                 [&](const Answer& a) { timed("bench.store.get", [&] { (void)st.get(a.ckey); }); });
    }
    store::Options so;
    so.dir = o.store_dir.empty() ? dir : o.store_dir;
    Budget b(0.05 * s);
    for (int i = 0; i < 1 || (!b.spent() && i < 50); ++i)
      timed("bench.store.open", [&] { store::Store st(so); });
    std::filesystem::remove_all(dir);
  }

  // analysis / adversary / graph on the decide set.
  for_budget(decide_set, 0.07 * s, 1, [&](const Item* it) {
    timed("bench.analysis.rmt_cut", [&] { (void)analysis::find_rmt_cut(it->parsed.request.instance); });
  });
  for_budget(decide_set, 0.07 * s, 1, [&](const Item* it) {
    timed("bench.analysis.zpp_cut",
          [&] { (void)analysis::find_rmt_zpp_cut(it->parsed.request.instance); });
  });
  for_budget(decide_set, 0.05 * s, 1, [&](const Item* it) {
    const Instance& inst = it->parsed.request.instance;
    timed("bench.analysis.full_knowledge", [&] {
      (void)analysis::solvable_full_knowledge(inst.graph(), inst.adversary(), inst.dealer(),
                                              inst.receiver());
    });
  });
  double sets = 0, set_reqs = 0;
  for_budget(decide_set, 0.05 * s, 1, [&](const Item* it) {
    const Instance& inst = it->parsed.request.instance;
    NodeSet forbidden;
    forbidden.insert(inst.dealer());
    timed("bench.graph.connected_sets", [&] {
      enumerate_connected_subsets(inst.graph(), inst.receiver(), forbidden, [&](const NodeSet&) {
        ++sets;
        return true;
      });
    });
    ++set_reqs;
  });
  double vector_ns = 0, scalar_ns = 0;
  {
    std::size_t i = 0;
    for_budget(decide_set, 0.1 * s, 1, [&](const Item* it) {
      const Instance& inst = it->parsed.request.instance;
      for (int k = 0; k < 2; ++k) {
        const bool scalar = (k + i) % 2 == 1;  // alternate which side runs first
        simd::ScopedForceScalar force(scalar);
        (scalar ? scalar_ns : vector_ns) +=
            timed(scalar ? "bench.adversary.rmt_cut_scalar" : "bench.adversary.rmt_cut_vector",
                  [&] { (void)analysis::find_rmt_cut(inst); });
      }
      ++i;
    });
  }

  // protocols / sim on the --sim queries.
  for_budget(sims, 0.08 * s, 1, [&](const Item* it) {
    compute_layers(it->parsed.request);
  });

  // exec: the sequential per-job compute time against workers x the wall
  // of Engine::run over the same jobs in batches on a pool.
  double seq_ns = 0, par_ns = 0;
  {
    std::vector<svc::Request> jobs;
    Budget b(0.07 * s);
    for (const Item* it : decide_set) {
      if (!jobs.empty() && b.spent()) break;
      svc::Engine fresh(nullptr);
      seq_ns += timed("bench.exec.job", [&] { (void)fresh.run({it->parsed.request}); });
      jobs.push_back(it->parsed.request);
    }
    exec::ThreadPool pool(o.jobs);
    svc::Engine engine(&pool);
    for (std::size_t at = 0; at < jobs.size(); at += o.batch) {
      std::vector<svc::Request> batch(jobs.begin() + std::ptrdiff_t(at),
                                      jobs.begin() + std::ptrdiff_t(std::min(jobs.size(), at + o.batch)));
      par_ns += timed("bench.exec.batch", [&] { (void)engine.run(batch); });
    }
  }

  if (!trace::Recorder::global().write_file(o.trace_out)) die("cannot write " + o.trace_out);

  auto us = [](const char* name) { return g_acc[name].mean() / 1e3; };
  auto ms = [](const char* name) { return g_acc[name].mean() / 1e6; };
  const Acc& msgs = g_acc["count.honest_messages"];
  std::vector<std::pair<std::string, double>> m = {
      {"net.framer_ns_per_byte", framer_ns / framer_bytes},
      {"wire.parse_request_us", us("bench.wire.parse_request")},
      {"io.parse_instance_us", us("bench.io.parse_instance")},
      {"wire.format_response_us", us("bench.wire.format_response")},
      {"svc.instance_key_us", us("bench.svc.instance_key")},
      {"cache.get_hit_us", us("bench.cache.get_hit")},
      {"cache.put_us", us("bench.cache.put")},
      {"svc.engine_run_us_per_hit", traced_ns / run_hits / 1e3},
      {"store.open_ms", ms("bench.store.open")},
      {"store.get_us", us("bench.store.get")},
      {"store.put_us", us("bench.store.put")},
      {"analysis.rmt_cut_ms", ms("bench.analysis.rmt_cut")},
      {"analysis.zpp_cut_ms", ms("bench.analysis.zpp_cut")},
      {"analysis.full_knowledge_ms", ms("bench.analysis.full_knowledge")},
      {"graph.connected_sets_per_req", set_reqs ? sets / set_reqs : 0},
      {"adversary.simd_speedup", scalar_ns / vector_ns},
      {"protocols.run_rmt_ms", ms("bench.protocols.run_rmt")},
      {"sim.honest_messages_per_req", msgs.mean()},
      {"exec.parallel_efficiency", seq_ns / (double(o.jobs) * par_ns)},
      {"obs.trace_overhead_pct", 100.0 * (traced_ns / untraced_ns - 1.0)},
      {"unattributed_pct", 100.0 * (whole_ns - layer_ns) / whole_ns},
  };
  std::printf("{");
  for (std::size_t i = 0; i < m.size(); ++i)
    std::printf("%s\"%s\":%.17g", i ? "," : "", m[i].first.c_str(), m[i].second);
  std::printf("}\n");
  return 0;
}

int prep_store(const std::string& hot, const std::string& dir, std::size_t filler) {
  std::filesystem::remove_all(dir);
  svc::Engine::Options opts;
  opts.store.dir = dir;
  {
    exec::ThreadPool pool(3);  // before the server starts, so off the clock
    svc::Engine engine(&pool, opts);
    std::vector<svc::Request> batch;
    for (const std::string& line : read_lines(hot)) batch.push_back(svc::wire::parse_request(line).request);
    for (const svc::Response& r : engine.run(batch))
      if (r.status != svc::Response::Status::kOk) die("hot-set answer failed: " + r.error);
  }
  // Filler: decide_rmt-shaped records under keys no request hashes to.
  store::Store st(opts.store);
  for (std::size_t i = 0; i < filler; ++i) {
    const std::uint64_t h = exec::derive_seed(0xf111e7, i);
    char key[64];
    std::snprintf(key, sizeof key, "%016llx%016llx|decide_rmt",
                  static_cast<unsigned long long>(h), static_cast<unsigned long long>(~h));
    const std::string value = "{\"kind\":\"decide_rmt\",\"solvable\":false,\"witness\":{\"c1\":\"{" +
                              std::to_string(h % 23) + ", " + std::to_string(h % 19 + 1) +
                              "}\",\"c2\":\"{}\",\"b\":\"{" + std::to_string(h % 17) + "}\"}}";
    st.put(key, value);
  }
  st.flush();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench_layers measure|prep-store ...");
  const std::string cmd = argv[1];
  Options o;
  std::string dir;
  std::size_t filler = 0;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--hot") o.hot = v;
    else if (k == "--miss") o.miss = v;
    else if (k == "--sim") o.sim = v;
    else if (k == "--store-dir") o.store_dir = v;
    else if (k == "--work") o.work = v;
    else if (k == "--trace-out") o.trace_out = v;
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--jobs") o.jobs = std::stoul(v);
    else if (k == "--batch") o.batch = std::stoul(v);
    else if (k == "--dir") dir = v;
    else if (k == "--filler") filler = std::stoul(v);
    else die("unknown flag " + k);
  }
  try {
    if (cmd == "measure") return measure(o);
    if (cmd == "prep-store") return prep_store(o.hot, dir, filler);
  } catch (const std::exception& e) {
    die(e.what());
  }
  die("unknown command " + cmd);
}
