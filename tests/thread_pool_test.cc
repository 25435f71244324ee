#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace chameleon {
namespace {

// Records the chunk boundaries a ParallelFor produced, in chunk order.
std::vector<std::pair<size_t, size_t>> ChunksOf(ThreadPool& pool, size_t begin,
                                                size_t end, size_t grain) {
  // Chunk index is recoverable from chunk_begin, so concurrent writers
  // land in disjoint slots.
  const size_t n = end > begin ? end - begin : 0;
  const size_t g = std::max<size_t>(1, grain);
  std::vector<std::pair<size_t, size_t>> chunks((n + g - 1) / g);
  pool.ParallelFor(begin, end, grain, [&](size_t b, size_t e) {
    chunks[(b - begin) / g] = {b, e};
  });
  return chunks;
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(0, kN, 7, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokesFn) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 1, [&](size_t, size_t) { calls.fetch_add(1); });
  pool.ParallelFor(9, 3, 1, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, GrainLargerThanRangeIsOneCall) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  size_t seen_b = 99, seen_e = 0;
  pool.ParallelFor(3, 10, 1000, [&](size_t b, size_t e) {
    calls.fetch_add(1);
    seen_b = b;
    seen_e = e;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_b, 3u);
  EXPECT_EQ(seen_e, 10u);
}

TEST(ThreadPoolTest, GrainZeroBehavesAsOne) {
  ThreadPool pool(2);
  std::atomic<size_t> calls{0};
  pool.ParallelFor(0, 17, 0, [&](size_t b, size_t e) {
    EXPECT_EQ(e, b + 1);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 17u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(0, 100, 10, [&](size_t, size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, ChunkBoundariesIndependentOfThreadCount) {
  ThreadPool one(1);
  ThreadPool four(4);
  for (const auto& [begin, end, grain] :
       {std::tuple<size_t, size_t, size_t>{0, 1000, 64},
        {13, 999, 17},
        {0, 3, 1},
        {5, 6, 100}}) {
    EXPECT_EQ(ChunksOf(one, begin, end, grain),
              ChunksOf(four, begin, end, grain))
        << begin << " " << end << " " << grain;
  }
}

TEST(ThreadPoolTest, PropagatesFirstExceptionAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 1,
                       [&](size_t b, size_t) {
                         if (b == 42) throw std::runtime_error("chunk 42");
                       }),
      std::runtime_error);
  // The pool survives a throwing loop and runs the next one fully.
  std::atomic<size_t> sum{0};
  pool.ParallelFor(0, 100, 3, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsFromTwoThreads) {
  ThreadPool pool(4);
  constexpr size_t kN = 50'000;
  std::vector<uint32_t> a(kN), b(kN);
  auto run = [&pool, kN](std::vector<uint32_t>* out) {
    pool.ParallelFor(0, kN, 128, [out](size_t cb, size_t ce) {
      for (size_t i = cb; i < ce; ++i) (*out)[i] = static_cast<uint32_t>(i);
    });
  };
  std::thread other([&] { run(&b); });
  run(&a);
  other.join();
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(a[i], i) << i;
  EXPECT_EQ(a, b);
}

TEST(ThreadPoolTest, ManyThreadsIssuingTinyLoopsAtOnce) {
  // Callers claim chunks without the pool mutex, so a loop a waking
  // worker saw as runnable can be drained before the worker picks it.
  // Many short loops from several callers keep that window busy.
  ThreadPool pool(4);
  constexpr size_t kCallers = 4;
  constexpr size_t kLoops = 2'000;
  constexpr size_t kN = 8;
  std::vector<std::thread> callers;
  std::vector<size_t> bad_loops(kCallers, 0);
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&pool, &bad_loops, t] {
      for (size_t l = 0; l < kLoops; ++l) {
        std::atomic<size_t> sum{0};
        pool.ParallelFor(0, kN, 1, [&sum](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) sum.fetch_add(i + 1);
        });
        if (sum.load() != kN * (kN + 1) / 2) ++bad_loops[t];
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (size_t t = 0; t < kCallers; ++t) EXPECT_EQ(bad_loops[t], 0u) << t;
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnv) {
  const char* saved = std::getenv("CHAMELEON_THREADS");
  const std::string saved_copy = saved ? saved : "";

  setenv("CHAMELEON_THREADS", "3", 1);
  EXPECT_EQ(DefaultThreadCount(), 3u);
  setenv("CHAMELEON_THREADS", "garbage", 1);
  EXPECT_GE(DefaultThreadCount(), 1u);  // falls back to hardware
  setenv("CHAMELEON_THREADS", "0", 1);
  EXPECT_GE(DefaultThreadCount(), 1u);

  if (saved) {
    setenv("CHAMELEON_THREADS", saved_copy.c_str(), 1);
  } else {
    unsetenv("CHAMELEON_THREADS");
  }
}

TEST(ThreadPoolTest, SetGlobalThreadsResizes) {
  SetGlobalThreads(2);
  EXPECT_EQ(GlobalPool().num_threads(), 2u);
  SetGlobalThreads(5);
  EXPECT_EQ(GlobalPool().num_threads(), 5u);
  SetGlobalThreads(0);  // restore the default for the rest of the suite
  EXPECT_EQ(GlobalPool().num_threads(), DefaultThreadCount());
}

// Every call gets its own thread: all n calls are in flight at once
// (each waits for the others), which a pool of fewer threads could not
// schedule.
TEST(RunOnThreadsTest, RunsEveryIndexOnItsOwnThreadAtOnce) {
  constexpr size_t kThreads = 6;
  std::atomic<size_t> arrived{0};
  std::vector<int> calls(kThreads, 0);
  std::vector<std::thread::id> ids(kThreads);
  const std::exception_ptr error = RunOnThreads(kThreads, [&](size_t i) {
    ++calls[i];
    ids[i] = std::this_thread::get_id();
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (arrived.load() < kThreads &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_FALSE(error);
  EXPECT_EQ(arrived.load(), kThreads);
  EXPECT_EQ(calls, std::vector<int>(kThreads, 1));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(std::count(ids.begin(), ids.end(), std::this_thread::get_id()),
            0);
}

TEST(RunOnThreadsTest, ReturnsTheFirstExceptionAfterEveryCallFinishes) {
  std::atomic<size_t> finished{0};
  const std::exception_ptr error = RunOnThreads(4, [&](size_t i) {
    if (i == 2) throw std::runtime_error("call 2 failed");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    finished.fetch_add(1);
  });
  EXPECT_EQ(finished.load(), 3u);
  ASSERT_TRUE(error);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  EXPECT_FALSE(RunOnThreads(0, [](size_t) { FAIL(); }));
}

}  // namespace
}  // namespace chameleon
