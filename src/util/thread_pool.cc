#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

namespace chameleon {

/// Shared state of one ParallelFor call. Chunks are claimed with one
/// relaxed fetch_add; completion is tracked by a second counter whose
/// final increment wakes the caller. The caller participates in chunk
/// execution, so a 1-thread pool degenerates to an inline loop.
struct ThreadPool::ForLoop {
  size_t begin = 0;
  size_t end = 0;
  size_t grain = 1;
  size_t num_chunks = 0;
  const std::function<void(size_t, size_t)>* fn = nullptr;

  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> done_chunks{0};

  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr error;  // first exception thrown by any chunk

  bool HasUnclaimed() const {
    return next_chunk.load(std::memory_order_relaxed) < num_chunks;
  }

  /// Claims and runs one chunk; returns false when none remain.
  bool RunOneChunk() {
    const size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= num_chunks) return false;
    const size_t b = begin + c * grain;
    const size_t e = std::min(end, b + grain);
    try {
      (*fn)(b, e);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
    // seq_cst RMW: the caller's predicate load synchronizes with this,
    // making every chunk's writes visible before ParallelFor returns.
    if (done_chunks.fetch_add(1) + 1 == num_chunks) {
      // Lock so the notify cannot slip between the caller's predicate
      // check and its wait.
      std::lock_guard<std::mutex> lock(mu);
      done_cv.notify_all();
    }
    return true;
  }
};

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t total = std::max<size_t>(1, num_threads);
  workers_.reserve(total - 1);
  for (size_t i = 0; i + 1 < total; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::shared_ptr<ThreadPool::ForLoop> ThreadPool::FirstRunnable() {
  for (const std::shared_ptr<ForLoop>& loop : active_) {
    if (loop->HasUnclaimed()) return loop;
  }
  return nullptr;
}

void ThreadPool::WorkerMain() {
  std::unique_lock<std::mutex> lock(mu_);
  std::shared_ptr<ForLoop> loop;
  while (true) {
    // Keep the loop the predicate found: callers claim chunks without
    // mu_, so a second FirstRunnable() could already find it drained.
    // Running a drained loop is harmless (RunOneChunk returns false).
    cv_.wait(lock, [this, &loop] {
      return stop_ || (loop = FirstRunnable()) != nullptr;
    });
    if (stop_) return;
    lock.unlock();
    while (loop->RunOneChunk()) {
    }
    loop.reset();
    lock.lock();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const size_t n = end - begin;
  const size_t num_chunks = (n + grain - 1) / grain;
  if (workers_.empty() || num_chunks == 1) {
    // Inline path: identical chunk boundaries, natural exception flow.
    for (size_t c = 0; c < num_chunks; ++c) {
      fn(begin + c * grain, std::min(end, begin + (c + 1) * grain));
    }
    return;
  }

  auto loop = std::make_shared<ForLoop>();
  loop->begin = begin;
  loop->end = end;
  loop->grain = grain;
  loop->num_chunks = num_chunks;
  loop->fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.push_back(loop);
  }
  cv_.notify_all();

  while (loop->RunOneChunk()) {
  }
  {
    std::unique_lock<std::mutex> lock(loop->mu);
    loop->done_cv.wait(lock, [&] {
      return loop->done_chunks.load() == loop->num_chunks;
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase(active_, loop);
  }
  if (loop->error) std::rethrow_exception(loop->error);
}

size_t DefaultThreadCount() {
  if (const char* env = std::getenv("CHAMELEON_THREADS")) {
    char* parse_end = nullptr;
    const long v = std::strtol(env, &parse_end, 10);
    if (parse_end != env && *parse_end == '\0' && v >= 1 && v <= 1024) {
      return static_cast<size_t>(v);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {
std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
}  // namespace

ThreadPool& GlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(DefaultThreadCount());
  return *g_pool;
}

void SetGlobalThreads(size_t num_threads) {
  const size_t n =
      num_threads == 0 ? DefaultThreadCount() : std::max<size_t>(1, num_threads);
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool && g_pool->num_threads() == n) return;
  g_pool = std::make_unique<ThreadPool>(n);
}

std::exception_ptr RunOnThreads(size_t n,
                                const std::function<void(size_t)>& fn) {
  std::exception_ptr first_error;
  std::mutex error_mu;
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return first_error;
}

}  // namespace chameleon
