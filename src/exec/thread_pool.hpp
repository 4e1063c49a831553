// exec/thread_pool.hpp — the rmt::exec scheduling core: a fixed-size
// work-stealing thread pool plus deterministic parallel loops.
//
// Every expensive path in this reproduction (strategy enumeration, the
// exact deciders' outer scans, the bench sweeps) is an embarrassingly
// parallel loop over an index range. This pool runs those loops across a
// fixed worker set: each worker owns a deque fed round-robin by submit(),
// drains it FIFO, and steals from its siblings' tails when empty — so an
// uneven chunk distribution rebalances without a central queue becoming
// the bottleneck.
//
// Determinism contract: parallelism here never changes *results*, only
// wall time. parallel_for chunks an index range and runs every chunk
// exactly once; parallel_reduce stores per-chunk partials and folds them
// in ascending chunk order on the calling thread — so the reduction is
// bit-identical at any worker count, including a pool of one and no pool
// at all. Anything order-sensitive must flow through parallel_reduce (or
// chunk-indexed storage), never through shared accumulators.
//
// Nesting: a parallel loop entered from inside one of this pool's workers
// runs inline on that worker (no re-submission), so library code can use
// the loops unconditionally without risking scheduling deadlock.
//
// Observability: the pool counts tasks executed and steals in its own
// atomics (stats()); publish_stats() pushes the deltas into the global
// rmt::obs registry as the "exec.tasks" / "exec.steals" counters and the
// "exec.queue_depth" gauge. Publishing is explicit and coarse (campaign
// and driver boundaries) so the registry's lookup mutex stays off the
// task hot path.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "util/check.hpp"

namespace rmt::exec {

class ThreadPool {
 public:
  /// Spawns `threads` workers immediately. Requires threads >= 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_workers() const { return workers_.size(); }

  /// Enqueue one task (round-robin across worker deques). Thread-safe.
  void submit(std::function<void()> task);

  /// True when called from one of this pool's workers (used by the
  /// parallel loops to run nested work inline instead of re-submitting).
  bool on_worker_thread() const;

  struct Stats {
    std::uint64_t tasks_executed = 0;
    std::uint64_t steals = 0;
    std::size_t queue_depth = 0;  ///< tasks currently enqueued, unstarted
  };
  Stats stats() const;

  /// Push the deltas since the last publish into the global obs registry
  /// ("exec.tasks", "exec.steals" counters; "exec.queue_depth" gauge).
  /// No-op while observability is disabled.
  void publish_stats();

  /// max(1, std::thread::hardware_concurrency()).
  static std::size_t hardware_concurrency();

 private:
  struct WorkerQueue {
    std::mutex m;
    std::deque<std::function<void()>> q;
  };

  // parallel_for enqueues its chunks directly: each chunk opens its own
  // exec.task span and must close it before signalling completion.
  friend void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                           std::size_t grain, const std::function<void(std::size_t)>& fn);

  /// Push an already-wrapped task (round-robin) and wake one worker.
  void enqueue(std::function<void()> task);

  void worker_loop(std::size_t self);
  std::optional<std::function<void()>> try_take(std::size_t self);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  mutable std::mutex m_;         // guards pending_ / stop_ for the sleep cv
  std::condition_variable cv_;
  std::size_t pending_ = 0;      // submitted, not yet claimed by a worker
  bool stop_ = false;
  std::atomic<std::uint64_t> next_queue_{0};

  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::mutex publish_m_;         // serializes delta accounting only
  std::uint64_t published_tasks_ = 0;
  std::uint64_t published_steals_ = 0;
};

/// A sensible chunk size for `total` units on `pool`: large enough to
/// amortize scheduling, small enough to let stealing balance (about eight
/// chunks per worker). With no pool the answer is the whole range.
std::size_t suggest_grain(std::size_t total, const ThreadPool* pool);

/// Run fn(i) for every i in [begin, end), in chunks of `grain` indices,
/// on `pool`. Blocks until every index ran. Sequential-inline (and
/// allocation-free) when pool is null, has one worker, the range fits in
/// one chunk, or the caller is already one of pool's workers. The first
/// exception (lowest chunk) is rethrown after the loop drains; every
/// other chunk still runs.
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t)>& fn);

/// Deterministic map/reduce over [begin, end): `map` folds one chunk
/// [lo, hi) into a T; partials are combined *in ascending chunk order*
/// with `combine`, so a non-commutative combine (string concatenation,
/// first-witness selection) gives the same answer at any worker count.
template <typename T>
T parallel_reduce(ThreadPool* pool, std::size_t begin, std::size_t end, std::size_t grain,
                  T init, const std::function<T(std::size_t, std::size_t)>& map,
                  const std::function<T(T, T)>& combine) {
  if (begin >= end) return init;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (end - begin + grain - 1) / grain;
  std::vector<std::optional<T>> partial(chunks);
  parallel_for(pool, 0, chunks, 1, [&](std::size_t c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = std::min(end, lo + grain);
    partial[c].emplace(map(lo, hi));
  });
  T acc = std::move(init);
  for (std::optional<T>& p : partial) {
    RMT_CHECK(p.has_value(), "parallel_reduce: a chunk finished without a partial");
    acc = combine(std::move(acc), std::move(*p));
  }
  return acc;
}

}  // namespace rmt::exec
