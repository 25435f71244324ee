#ifndef CHAMELEON_UTIL_THREAD_POOL_H_
#define CHAMELEON_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace chameleon {

/// A small fixed-size worker pool whose only entry point is a chunked
/// parallel loop. Designed for the index's construction-side fan-outs
/// (per-unit subtree builds, GA fitness scoring, retrain leaf rebuilds),
/// where work items are independent and results land in caller-owned
/// slots indexed by position — which is what makes every ParallelFor
/// deterministic with respect to the thread count:
///
///  * chunk boundaries depend only on (begin, end, grain), never on how
///    many threads execute them, and
///  * `fn` must write results only to slots derived from its chunk
///    indices, so the merged result is independent of execution order.
///
/// Multiple threads may issue ParallelFor calls concurrently (e.g. the
/// retrainer thread rebuilding leaves while a test hammers another
/// loop); calls do not nest — `fn` must not itself call ParallelFor on
/// the same pool.
class ThreadPool {
 public:
  /// `num_threads` is the total concurrency including the calling
  /// thread, so ThreadPool(1) spawns no workers and runs every loop
  /// inline. Clamped to >= 1.
  explicit ThreadPool(size_t num_threads);

  /// Joins the workers. Undefined if a ParallelFor is still in flight on
  /// another thread.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the calling thread).
  size_t num_threads() const { return workers_.size() + 1; }

  /// Invokes `fn(chunk_begin, chunk_end)` over [begin, end) split into
  /// chunks of at most `grain` elements (grain 0 behaves as 1). The
  /// calling thread participates; the call returns only when every
  /// chunk has completed. If any chunk throws, the first exception is
  /// rethrown on the caller after all claimed chunks finish (remaining
  /// unclaimed chunks still run — loops are not cancelled mid-flight).
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

 private:
  struct ForLoop;

  void WorkerMain();
  /// Requires mu_. First queued loop with unclaimed chunks, or null.
  std::shared_ptr<ForLoop> FirstRunnable();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::shared_ptr<ForLoop>> active_;  // loops workers may join
  bool stop_ = false;
};

/// Thread count used for the lazily created global pool: the
/// CHAMELEON_THREADS environment variable when set to a positive
/// integer, otherwise std::thread::hardware_concurrency() (>= 1).
size_t DefaultThreadCount();

/// Process-wide pool shared by construction paths (see DESIGN.md §7).
/// Created on first use with DefaultThreadCount() threads.
ThreadPool& GlobalPool();

/// Replaces the global pool with one of `num_threads` threads (the
/// --threads=N bench knob and tests use this). Must not be called while
/// any ParallelFor on the global pool is in flight. No-op when the pool
/// already has exactly that many threads. `num_threads` 0 restores
/// DefaultThreadCount().
void SetGlobalThreads(size_t num_threads);

/// Runs fn(i) for every i < n, each call on its own new thread, joins
/// every thread and returns the first exception a call threw (null if
/// none). The one fan-out for work that itself issues ParallelFor loops
/// (per-shard builds and recoveries) or runs for a whole measurement
/// (the driver's replay threads): pool loops must not nest, and a
/// replay thread must not wait behind another loop's chunks.
/// Concurrent ParallelFor calls from distinct threads are supported, so
/// each call's own heavy lifting still lands on the pool.
[[nodiscard]] std::exception_ptr RunOnThreads(
    size_t n, const std::function<void(size_t)>& fn);

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_THREAD_POOL_H_
