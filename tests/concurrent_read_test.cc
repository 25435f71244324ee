// Core-hardening tests for the ISSUE-3 serving model: R >= 2 reader
// threads replaying lookups (directly and through the workload driver)
// while the Interval-Lock retraining thread concurrently rebuilds
// drifted units. Run under TSan in CI; assertions pin zero lost or
// stale reads across leaf swaps.
//
// Thread model exercised here (and documented in DESIGN.md §8):
// concurrent *readers* + the retrainer are safe together; the single
// foreground writer runs in the gaps between reader rounds, exactly
// like fig15's alternating insert/read segments.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/chameleon_index.h"
#include "src/data/dataset.h"
#include "src/util/random.h"
#include "src/workload/driver.h"
#include "src/workload/workload_spec.h"

namespace chameleon {
namespace {

constexpr Value ExpectedValue(Key k) { return k ^ 0x5A5A5A5Aull; }

// Deterministic fresh keys adjacent to loaded ones (drives unit drift
// without touching the bulk-loaded population the readers verify).
std::vector<Key> FreshKeys(const std::vector<KeyValue>& data, size_t count,
                           uint64_t seed) {
  Rng rng(seed);
  std::vector<Key> fresh;
  fresh.reserve(count);
  std::unordered_set<Key> taken;
  for (const KeyValue& kv : data) taken.insert(kv.key);
  while (fresh.size() < count) {
    Key k = data[rng.NextBounded(data.size())].key + 1 + rng.NextBounded(3);
    while (taken.contains(k)) ++k;
    taken.insert(k);
    fresh.push_back(k);
  }
  return fresh;
}

std::vector<KeyValue> BuildData(size_t n, uint64_t seed) {
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kFace, n, seed);
  std::vector<KeyValue> data;
  data.reserve(keys.size());
  for (Key k : keys) data.push_back({k, ExpectedValue(k)});
  return data;
}

// R reader threads hammer the bulk-loaded keys while the retrainer
// rebuilds units drifted by inserts applied between reader rounds.
// Every lookup must hit and return the originally loaded value — a
// swap that lost a key or published a half-built leaf fails here (and
// trips TSan on the unsynchronized access first).
TEST(ConcurrentReadTest, ReadersSeeEveryKeyAcrossRetrains) {
  constexpr size_t kReaders = 4;
  constexpr size_t kRounds = 6;
  const std::vector<KeyValue> data = BuildData(12'000, /*seed=*/29);

  ChameleonConfig config;
  config.retrain_threshold_pct = 10;  // retrain eagerly
  ChameleonIndex index(config);
  index.BulkLoad(data);
  index.StartRetrainer(std::chrono::milliseconds(1));

  const std::vector<Key> fresh = FreshKeys(data, kRounds * 2'000, 31);
  std::atomic<size_t> lost{0}, stale{0};
  for (size_t round = 0; round < kRounds; ++round) {
    // Single foreground writer (main thread): drift 2'000 keys into the
    // loaded units, concurrently with the retrainer only.
    for (size_t i = round * 2'000; i < (round + 1) * 2'000; ++i) {
      ASSERT_TRUE(index.Insert(fresh[i], ExpectedValue(fresh[i]))) << fresh[i];
    }
    // Reader round: R threads scan the stable bulk population while the
    // retrainer keeps swapping rebuilt subtrees underneath them.
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        for (size_t i = t; i < data.size(); i += kReaders) {
          Value v = 0;
          if (!index.Lookup(data[i].key, &v)) {
            lost.fetch_add(1, std::memory_order_relaxed);
          } else if (v != data[i].value) {
            stale.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& r : readers) r.join();
    ASSERT_EQ(lost.load(), 0u) << "round " << round;
    ASSERT_EQ(stale.load(), 0u) << "round " << round;
  }
  index.StopRetrainer();
  // The eager threshold and 1 ms interval guarantee the readers actually
  // raced live retraining passes rather than an idle thread.
  EXPECT_GT(index.total_retrains(), 0u);
  EXPECT_EQ(index.size(), data.size() + fresh.size());
}

// Same scenario through the workload driver — the fig15 configuration
// with --rthreads=R: alternating single-writer insert segments and
// R-thread read segments, retrainer live throughout. The acceptance
// criterion is zero missed operations on every segment.
TEST(ConcurrentReadTest, DriverFanOutDuringRetrainHasZeroMisses) {
  const std::vector<KeyValue> data = BuildData(12'000, /*seed=*/37);
  std::vector<Key> keys(data.size());
  for (size_t i = 0; i < data.size(); ++i) keys[i] = data[i].key;

  ChameleonConfig config;
  config.retrain_threshold_pct = 10;
  ChameleonIndex index(config);
  index.BulkLoad(data);
  index.StartRetrainer(std::chrono::milliseconds(1));

  WorkloadGenerator gen(keys, /*seed=*/41);
  for (size_t segment = 0; segment < 6; ++segment) {
    const std::vector<Operation> inserts = Drain(
        *MakeOpSource(ParseWorkloadOrDie("insdel(u=1)"), gen, keys), 2'000);
    ReplayOptions write_options;  // single writer
    const ReplayResult w = Replay(&index, inserts, write_options);
    ASSERT_EQ(w.misses, 0u) << "segment " << segment;

    const std::vector<Operation> reads = Drain(
        *MakeOpSource(ParseWorkloadOrDie("read"), gen, keys), 8'000);
    ReplayOptions read_options;
    read_options.threads = 4;
    read_options.batch = segment % 2 == 0 ? 1 : 16;  // both probe kernels
    obs::LatencyHistogram hist;
    const ReplayResult r = Replay(&index, reads, read_options, &hist);
    ASSERT_EQ(r.misses, 0u) << "segment " << segment;
    ASSERT_EQ(r.ops, reads.size());
    ASSERT_EQ(hist.count(), reads.size());
  }
  index.StopRetrainer();
  EXPECT_GT(index.total_retrains(), 0u);
}

// Readers racing explicit synchronous retraining passes — no timing
// dependence on the background thread's wakeups, so every reader round
// deterministically overlaps live leaf swaps. The single foreground
// writer drifts units while the readers are parked (fig15's segment
// structure); only Lookup vs RetrainOnce run concurrently.
TEST(ConcurrentReadTest, ReadersRaceSynchronousRetrainPasses) {
  constexpr size_t kReaders = 2;
  constexpr size_t kRounds = 5;
  const std::vector<KeyValue> data = BuildData(8'000, /*seed=*/43);

  ChameleonConfig config;
  config.retrain_threshold_pct = 5;
  ChameleonIndex index(config);
  index.BulkLoad(data);
  // Interval locks engage only while a retrainer is live; a long
  // interval keeps all retraining in the explicit RetrainOnce calls.
  index.StartRetrainer(std::chrono::seconds(600));

  const std::vector<Key> fresh = FreshKeys(data, kRounds * 1'000, 47);
  size_t retrained = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    // Solo writer: accumulate drift past the 5% per-unit threshold.
    for (size_t i = round * 1'000; i < (round + 1) * 1'000; ++i) {
      ASSERT_TRUE(index.Insert(fresh[i], ExpectedValue(fresh[i])));
    }
    // Readers sweep the bulk population while the main thread drains
    // the drifted units through back-to-back synchronous passes.
    std::atomic<bool> stop{false};
    std::atomic<size_t> bad{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        Rng rng(100 + t);
        while (!stop.load(std::memory_order_relaxed)) {
          const KeyValue& kv = data[rng.NextBounded(data.size())];
          Value v = 0;
          if (!index.Lookup(kv.key, &v) || v != kv.value) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (int pass = 0; pass < 4; ++pass) retrained += index.RetrainOnce();
    stop.store(true);
    for (std::thread& r : readers) r.join();
    ASSERT_EQ(bad.load(), 0u) << "round " << round;
  }
  index.StopRetrainer();
  EXPECT_GT(retrained, 0u);
}

}  // namespace
}  // namespace chameleon
