// Tests for the one background-work lifecycle (util/periodic_worker.h):
// periodic runs, idempotent start/stop, and the pause guard that
// whole-structure operations take against a live worker.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/periodic_worker.h"

namespace chameleon {
namespace {

using std::chrono::milliseconds;

/// Polls `done` every millisecond for up to five seconds.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

TEST(PeriodicWorkerTest, RunsTheBodyEveryIntervalUntilStopped) {
  PeriodicWorker worker;
  std::atomic<int> runs{0};
  ASSERT_TRUE(worker.Start(milliseconds(1), [&] { runs.fetch_add(1); }));
  EXPECT_TRUE(worker.running());
  ASSERT_TRUE(WaitFor([&] { return runs.load() >= 3; }));
  worker.Stop();
  EXPECT_FALSE(worker.running());
  const int after_stop = runs.load();
  std::this_thread::sleep_for(milliseconds(10));
  EXPECT_EQ(runs.load(), after_stop) << "no run after Stop returns";
}

TEST(PeriodicWorkerTest, StartAndStopAreIdempotentAndRestartable) {
  PeriodicWorker worker;
  worker.Stop();  // never started: a no-op
  EXPECT_FALSE(worker.running());
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  ASSERT_TRUE(worker.Start(milliseconds(1), [&] { first.fetch_add(1); }));
  EXPECT_FALSE(worker.Start(milliseconds(1), [&] { second.fetch_add(1); }))
      << "a running worker keeps its body";
  worker.Stop();
  worker.Stop();
  EXPECT_FALSE(worker.running());
  EXPECT_EQ(second.load(), 0);

  ASSERT_TRUE(worker.Start(milliseconds(1), [&] { second.fetch_add(1); }));
  ASSERT_TRUE(WaitFor([&] { return second.load() >= 1; }));
  // The destructor stops a worker that is still running.
}

TEST(PeriodicWorkerTest, PauseWaitsOutTheRunInFlightAndBlocksNewRuns) {
  PeriodicWorker worker;
  std::atomic<bool> in_body{false};
  std::atomic<int> runs{0};
  ASSERT_TRUE(worker.Start(milliseconds(1), [&] {
    in_body.store(true);
    std::this_thread::sleep_for(milliseconds(20));
    in_body.store(false);
    runs.fetch_add(1);
  }));
  ASSERT_TRUE(WaitFor([&] { return in_body.load(); }));
  {
    PeriodicWorker::PauseGuard pause(worker);
    EXPECT_FALSE(in_body.load()) << "the guard waits out the run in flight";
    const int paused_at = runs.load();
    // Many periods end while paused; none of them runs the body.
    std::this_thread::sleep_for(milliseconds(30));
    EXPECT_EQ(runs.load(), paused_at);
    EXPECT_FALSE(in_body.load());
    {
      PeriodicWorker::PauseGuard nested(worker);
    }
    std::this_thread::sleep_for(milliseconds(10));
    EXPECT_EQ(runs.load(), paused_at) << "an inner guard keeps the pause";
  }
  const int released_at = runs.load();
  EXPECT_TRUE(WaitFor([&] { return runs.load() > released_at; }))
      << "runs resume once the last guard is gone";
  worker.Stop();
}

TEST(PeriodicWorkerTest, PauseWithoutARunningWorkerDoesNotBlock) {
  PeriodicWorker worker;
  {
    PeriodicWorker::PauseGuard pause(worker);
    PeriodicWorker::PauseGuard again(worker);
  }
  // A worker started under a guard skips its periods until release.
  std::atomic<int> runs{0};
  {
    PeriodicWorker::PauseGuard pause(worker);
    ASSERT_TRUE(worker.Start(milliseconds(1), [&] { runs.fetch_add(1); }));
    std::this_thread::sleep_for(milliseconds(10));
    EXPECT_EQ(runs.load(), 0);
  }
  EXPECT_TRUE(WaitFor([&] { return runs.load() >= 1; }));
  worker.Stop();
}

TEST(PeriodicWorkerTest, GuardsFromManyThreadsAgainstAFastWorker) {
  PeriodicWorker worker;
  std::atomic<bool> in_body{false};
  std::atomic<int> overlaps{0};
  ASSERT_TRUE(worker.Start(milliseconds(1), [&] {
    in_body.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    in_body.store(false);
  }));
  std::vector<std::thread> pausers;
  for (int t = 0; t < 3; ++t) {
    pausers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        PeriodicWorker::PauseGuard pause(worker);
        if (in_body.load()) overlaps.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        if (in_body.load()) overlaps.fetch_add(1);
      }
    });
  }
  for (std::thread& t : pausers) t.join();
  worker.Stop();
  EXPECT_EQ(overlaps.load(), 0) << "a run overlapped a held guard";
}

}  // namespace
}  // namespace chameleon
