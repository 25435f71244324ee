// Concurrency tests for the paper's thread model (Sec. V): one workload
// thread plus the background retraining thread, synchronized through
// Interval Locks — and read-only scaling, which the shared Query-Lock
// permits for free.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/chameleon_index.h"
#include "src/data/dataset.h"
#include "src/util/random.h"
#include "src/workload/workload_spec.h"

namespace chameleon {
namespace {

ChameleonConfig StressConfig() {
  ChameleonConfig config;
  config.retrain_threshold_pct = 10;
  config.max_retrains_per_pass = 64;
  config.dare.ga.population = 8;
  config.dare.ga.generations = 5;
  config.dare.fitness_sample = 1'000;
  return config;
}

TEST(ConcurrencyTest, ParallelReadersWithoutRetrainer) {
  ChameleonIndex index(StressConfig());
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kFace, 50'000, 3);
  index.BulkLoad(ToKeyValues(keys));

  std::atomic<size_t> misses{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 50'000; ++i) {
        Value v;
        if (!index.Lookup(keys[rng.NextBounded(keys.size())], &v)) {
          misses.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(misses.load(), 0u);
}

TEST(ConcurrencyTest, ParallelReadersWhileRetrainerRebuilds) {
  // Load, flood with inserts (single writer, sequential), then read from
  // multiple threads *while* the retrainer churns through the backlog of
  // drifted units — readers synchronize with rebuild swaps via the
  // Query-Lock and must never miss a present key.
  ChameleonIndex index(StressConfig());
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kOsmc, 40'000, 7);
  index.BulkLoad(ToKeyValues(keys));
  std::vector<Key> inserted;
  for (const Operation& op : MaterializeWorkload(
           ParseWorkloadOrDie("insdel(u=1)"), keys, 9, 60'000)) {
    ASSERT_TRUE(index.Insert(op.key, op.value));
    inserted.push_back(op.key);
  }

  index.StartRetrainer(std::chrono::milliseconds(1));
  std::atomic<size_t> misses{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(200 + t);
      for (int i = 0; i < 40'000; ++i) {
        Value v;
        const Key k = (i % 2 == 0)
                          ? keys[rng.NextBounded(keys.size())]
                          : inserted[rng.NextBounded(inserted.size())];
        if (!index.Lookup(k, &v)) misses.fetch_add(1);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  index.StopRetrainer();
  EXPECT_EQ(misses.load(), 0u);
  EXPECT_GT(index.total_retrains(), 0u);
}

TEST(ConcurrencyTest, PendingLogReplayLosesNothing) {
  // The paper's exact model: one workload thread (inserts and erases)
  // racing an aggressive retrainer. Updates that land while a unit's
  // replacement subtree is being built aside go through the pending-op
  // log; none may be lost or duplicated.
  ChameleonConfig config = StressConfig();
  ChameleonIndex index(config);
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kFace, 30'000, 11);
  index.BulkLoad(ToKeyValues(keys));
  index.StartRetrainer(std::chrono::milliseconds(1));

  WorkloadGenerator gen(keys, 13);
  const std::vector<Operation> ops = Drain(
      *MakeOpSource(ParseWorkloadOrDie("mixed(w=0.8)"), gen, keys), 120'000);
  for (const Operation& op : ops) {
    switch (op.type) {
      case OpType::kLookup:
        ASSERT_TRUE(index.Lookup(op.key, nullptr)) << op.key;
        break;
      case OpType::kInsert:
        ASSERT_TRUE(index.Insert(op.key, op.value)) << op.key;
        break;
      case OpType::kErase:
        ASSERT_TRUE(index.Erase(op.key)) << op.key;
        break;
      case OpType::kUpdate:
      case OpType::kScan:
        FAIL() << "MixedReadWrite never emits " << OpTypeName(op.type);
    }
  }
  index.StopRetrainer();
  EXPECT_GT(index.total_retrains(), 0u);

  // Full integrity sweep: exactly the live set, in order, no phantoms.
  EXPECT_EQ(index.size(), gen.live().size());
  std::vector<KeyValue> all;
  index.RangeScan(0, kMaxKey - 1, &all);
  EXPECT_EQ(all.size(), gen.live().size());
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  for (const KeyValue& kv : all) {
    ASSERT_TRUE(index.Lookup(kv.key, nullptr)) << kv.key;
  }
}

TEST(ConcurrencyTest, StartStopRetrainerRepeatedly) {
  ChameleonIndex index(StressConfig());
  index.BulkLoad(ToKeyValues(GenerateDataset(DatasetKind::kUden, 5'000, 1)));
  for (int i = 0; i < 5; ++i) {
    index.StartRetrainer(std::chrono::milliseconds(2));
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    index.StopRetrainer();
  }
  // Double stop is a no-op.
  index.StopRetrainer();
  EXPECT_TRUE(index.Lookup(1'000'000, nullptr) ||
              !index.Lookup(1'000'000, nullptr));  // still alive
}

TEST(ConcurrencyTest, RetrainOnceIsIdempotentWhenClean) {
  ChameleonIndex index(StressConfig());
  index.BulkLoad(ToKeyValues(GenerateDataset(DatasetKind::kLogn, 20'000, 5)));
  EXPECT_EQ(index.RetrainOnce(), 0u);
  EXPECT_EQ(index.RetrainOnce(), 0u);
}

TEST(ConcurrencyTest, WholeStructureCallsWaitOutALiveRetrainer) {
  // BulkLoad replaces every unit and Stats/SizeBytes/total_shifts walk
  // every subtree, all without Interval Locks. Each holds the
  // retrainer's pause guard, so a pass never reads a unit BulkLoad
  // frees nor swaps a subtree under a walk; without the guard TSan
  // reports both races here. Inserts between the calls keep units
  // drifting past the threshold, so the 1 ms retrainer has passes to
  // run.
  ChameleonConfig config = StressConfig();
  config.retrain_threshold_pct = 5;
  ChameleonIndex index(config);
  const std::vector<KeyValue> data =
      ToKeyValues(GenerateDataset(DatasetKind::kFace, 40'000, 17));
  index.BulkLoad(data);
  index.StartRetrainer(std::chrono::milliseconds(1));
  Rng rng(23);
  size_t inserted = 0;
  const auto insert_round = [&] {
    for (int i = 0; i < 4'000; ++i) {
      const KeyValue& near = data[rng.NextBounded(data.size())];
      inserted += index.Insert(near.key + 1, near.value);
    }
  };
  for (int round = 0; round < 10; ++round) {
    insert_round();
    index.BulkLoad(data);
    inserted = 0;
    ASSERT_EQ(index.size(), data.size());
  }
  for (int round = 0; round < 10; ++round) {
    insert_round();
    EXPECT_GT(index.Stats().num_nodes, 0u);
    EXPECT_GT(index.SizeBytes(), 0u);
    (void)index.total_shifts();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (index.total_retrains() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  index.StopRetrainer();
  EXPECT_GT(index.total_retrains(), 0u);

  EXPECT_EQ(index.size(), data.size() + inserted);
  std::vector<KeyValue> all;
  index.RangeScan(0, kMaxKey - 1, &all);
  EXPECT_EQ(all.size(), index.size());
  for (const KeyValue& kv : data) {
    ASSERT_TRUE(index.Lookup(kv.key, nullptr)) << kv.key;
  }
}

}  // namespace
}  // namespace chameleon
