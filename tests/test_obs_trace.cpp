// Tests for obs/trace.hpp: span lifecycle and parent links, deterministic
// ids, the flight-recorder ring accounting, context propagation across the
// exec::ThreadPool boundary, and the rmt.trace/1 dump shape.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"

namespace rmt::obs::trace {
namespace {

/// Every test starts from a clean, enabled recorder with the default seed
/// and leaves tracing disabled — the suite shares one process-global
/// recorder with whatever runs next.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Recorder::global().set_dump_path("");
    Recorder::global().set_capacity(Recorder::kDefaultCapacity);
    Recorder::global().clear();  // earlier tests may have left buffered spans
    set_seed(4242);
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    Recorder::global().set_dump_path("");
    Recorder::global().set_capacity(Recorder::kDefaultCapacity);
  }

  static std::string attrs_of(const SpanRecord& rec) { return rec.attrs; }
  static std::string name_of(const SpanRecord& rec) { return rec.name; }
  static std::string kind_of(const SpanRecord& rec) { return rec.kind; }
};

TEST_F(TraceTest, DisabledSpansAreInert) {
  set_enabled(false);
  {
    Span outer("svc.request");
    EXPECT_FALSE(outer.armed());
    EXPECT_FALSE(current().valid());  // no context leaks from an inert span
    Span inner("svc.compute");
    EXPECT_FALSE(inner.armed());
  }
  EXPECT_EQ(Recorder::global().recorded(), 0u);
  EXPECT_TRUE(Recorder::global().snapshot().empty());
}

TEST_F(TraceTest, NestedSpansLinkParentAndTrace) {
  std::uint64_t outer_trace = 0, outer_span = 0, inner_span = 0;
  {
    Span outer("svc.request");
    ASSERT_TRUE(outer.armed());
    outer_trace = outer.trace_id();
    outer_span = outer.span_id();
    EXPECT_EQ(current().trace_id, outer_trace);
    EXPECT_EQ(current().span_id, outer_span);
    {
      Span inner("svc.compute");
      inner_span = inner.span_id();
      EXPECT_EQ(inner.trace_id(), outer_trace);  // same request
      EXPECT_EQ(current().span_id, inner_span);
    }
    EXPECT_EQ(current().span_id, outer_span);  // restored on finish
  }
  EXPECT_FALSE(current().valid());

  const std::vector<SpanRecord> spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // The inner span finishes (and records) first.
  EXPECT_EQ(name_of(spans[0]), "svc.compute");
  EXPECT_EQ(spans[0].parent_span_id, outer_span);
  EXPECT_EQ(spans[0].trace_id, outer_trace);
  EXPECT_EQ(name_of(spans[1]), "svc.request");
  EXPECT_EQ(spans[1].parent_span_id, 0u);  // trace root
  // Child interval nests inside the parent's.
  EXPECT_GE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[0].end_ns, spans[1].end_ns);
  EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
}

TEST_F(TraceTest, IdsAreDeterministicUnderSeedAndNeverZero) {
  set_seed(7);
  const std::uint64_t a = next_id(), b = next_id(), c = next_id();
  set_seed(7);
  EXPECT_EQ(next_id(), a);
  EXPECT_EQ(next_id(), b);
  EXPECT_EQ(next_id(), c);
  EXPECT_NE(a, b);
  EXPECT_NE(a, 0u);

  set_seed(7);
  Span s("svc.request");
  EXPECT_EQ(s.trace_id(), a);  // spans draw from the same stream
  EXPECT_EQ(s.span_id(), b);

  EXPECT_EQ(id_hex(0).size(), 16u);
  EXPECT_EQ(id_hex(0x00ff), "00000000000000ff");
}

TEST_F(TraceTest, RingWrapKeepsNewestAndCountsDropped) {
  Recorder& rec = Recorder::global();
  rec.set_capacity(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    SpanRecord r;
    r.trace_id = 1;
    r.span_id = i;
    r.start_ns = i;
    r.end_ns = i;
    emit(r);
  }
  const std::vector<SpanRecord> spans = rec.snapshot();
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  ASSERT_EQ(spans.size(), 4u);
  for (std::uint64_t k = 0; k < 4; ++k)
    EXPECT_EQ(spans[k].span_id, 7u + k);  // oldest retained first

  const DumpHeader h = rec.header();
  EXPECT_EQ(h.capacity, 4u);
  EXPECT_EQ(h.recorded, 10u);
  EXPECT_EQ(h.dropped, 6u);
}

TEST_F(TraceTest, EmitFillsKindAndSkipsNullSpans) {
  SpanRecord plain;
  plain.trace_id = plain.span_id = next_id();
  emit(plain);
  SpanRecord join = plain;
  join.span_id = next_id();
  join.join_span_id = plain.span_id;
  emit(join);
  emit(SpanRecord{});  // span_id 0: dropped, not recorded as garbage

  const std::vector<SpanRecord> spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(kind_of(spans[0]), "span");
  EXPECT_EQ(kind_of(spans[1]), "join");
}

TEST_F(TraceTest, AttrsAcceptEveryOverloadAndNeverTruncate) {
  {
    Span s("svc.request");
    s.attr("kind", "decide_rmt");  // const char* must not pick the bool overload
    s.attr("name", std::string_view("abc"));
    s.attr("bytes", std::uint64_t(52));
    s.attr("coalesced", false);
    // Too big to fit: dropped whole, never cut mid-value.
    s.attr("huge", std::string(SpanRecord::kAttrBytes, 'x'));
  }
  const std::vector<SpanRecord> spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(attrs_of(spans[0]), "kind=decide_rmt;name=abc;bytes=52;coalesced=false");
}

TEST_F(TraceTest, SetJoinMarksKindAndTarget) {
  std::uint64_t leader = next_id();
  {
    Span s("svc.join");
    s.set_join(leader);
  }
  const std::vector<SpanRecord> spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(kind_of(spans[0]), "join");
  EXPECT_EQ(spans[0].join_span_id, leader);
}

TEST_F(TraceTest, ContextGuardEntersAndRestores) {
  const TraceContext root = new_root_context();
  ASSERT_TRUE(root.valid());
  {
    ContextGuard guard(root);
    EXPECT_EQ(current().trace_id, root.trace_id);
    Span child("svc.compute");
    EXPECT_EQ(child.trace_id(), root.trace_id);
  }
  EXPECT_FALSE(current().valid());
  const std::vector<SpanRecord> spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent_span_id, root.span_id);
}

TEST_F(TraceTest, PoolSubmitPropagatesContextViaExecTaskSpan) {
  std::uint64_t root_trace = 0, root_span = 0;
  {
    // The pool is scoped so its workers join (and drain their span
    // buffers) before the snapshot — the exec.task span finishes on the
    // worker *after* the task body signals completion.
    exec::ThreadPool pool(2);
    Span root("svc.request");
    root_trace = root.trace_id();
    root_span = root.span_id();
    std::promise<void> done;
    pool.submit([&] {
      Span inner("svc.compute");  // must nest under the submitter's request
      done.set_value();
    });
    done.get_future().wait();
  }
  const std::vector<SpanRecord> spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 3u);  // svc.compute, exec.task, svc.request

  const SpanRecord* task = nullptr;
  const SpanRecord* inner = nullptr;
  for (const SpanRecord& s : spans) {
    if (name_of(s) == "exec.task") task = &s;
    if (name_of(s) == "svc.compute") inner = &s;
  }
  ASSERT_NE(task, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(task->trace_id, root_trace);  // worker re-entered the context
  EXPECT_EQ(task->parent_span_id, root_span);
  EXPECT_EQ(inner->trace_id, root_trace);
  EXPECT_EQ(inner->parent_span_id, task->span_id);
}

TEST_F(TraceTest, ParallelForTaskSpansEndInsideTheirBatch) {
  // A parallel_for chunk's exec.task span must end before the chunk
  // signals completion: the waiter closes its svc.batch span (the task
  // spans' parent) as soon as the loop returns. The overhang needs a
  // worker delayed between the two, so many short loops give it many
  // chances. The dump also goes through tools/check_bench_json.py
  // (ctest json_parallel_for_trace_schema).
  constexpr std::size_t kBatches = 4000;
  constexpr std::size_t kChunks = 4;
  Recorder::global().set_capacity(kBatches * (kChunks + 1));
  {
    exec::ThreadPool pool(2);
    for (std::size_t i = 0; i < kBatches; ++i) {
      Span batch("svc.batch");
      exec::parallel_for(&pool, 0, kChunks, 1, [](std::size_t) {});
    }
  }
  const std::vector<SpanRecord> spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), kBatches * (kChunks + 1));
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.span_id] = &s;
  std::size_t overhangs = 0;
  for (const SpanRecord& s : spans) {
    if (name_of(s) != "exec.task") continue;
    const SpanRecord& parent = *by_id.at(s.parent_span_id);
    EXPECT_EQ(name_of(parent), "svc.batch");
    if (s.start_ns < parent.start_ns || s.end_ns > parent.end_ns) ++overhangs;
  }
  EXPECT_EQ(overhangs, 0u);

  // Replace the dump atomically: ctest may run this test twice at once
  // (discovered, and as the checker's fixture).
  const std::filesystem::path dump =
      std::filesystem::path(RMT_OBS_ARTIFACTS_DIR) / "parallel_for.trace.jsonl";
  std::filesystem::path tmp = dump;
  tmp += ".tmp";
  tmp += std::to_string(::getpid());
  ASSERT_TRUE(Recorder::global().write_file(tmp.string()));
  std::filesystem::rename(tmp, dump);
}

TEST_F(TraceTest, WriteJsonlHeaderAgreesWithSpanLines) {
  { Span a("svc.request"); }
  { Span b("svc.batch"); }
  std::ostringstream out;
  Recorder::global().write_jsonl(out);

  std::istringstream in(out.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + 2 spans
  EXPECT_NE(lines[0].find("\"schema\":\"rmt.trace/1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"recorded\":2"), std::string::npos);
  EXPECT_NE(lines[0].find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"name\":\"svc.request\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"parent\":null"), std::string::npos);
  EXPECT_NE(lines[2].find("\"name\":\"svc.batch\""), std::string::npos);
}

TEST_F(TraceTest, DumpNowWritesConfiguredPathOnly) {
  Recorder& rec = Recorder::global();
  rec.dump_now("no-path-configured");  // no dump path: must be a no-op

  const std::string path = ::testing::TempDir() + "rmt_trace_dump_test.jsonl";
  std::remove(path.c_str());
  { Span s("svc.request"); }
  rec.set_dump_path(path);
  rec.dump_now("test");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  ASSERT_TRUE(std::getline(in, first));
  EXPECT_NE(first.find("\"schema\":\"rmt.trace/1\""), std::string::npos);
  std::string span_line;
  ASSERT_TRUE(std::getline(in, span_line));
  EXPECT_NE(span_line.find("svc.request"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rmt::obs::trace
