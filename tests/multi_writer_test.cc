// Multi-writer concurrency tests: the relaxed single-writer contract.
// After EnableConcurrentWrites(), ChameleonIndex (bare or under the
// Durable adapter) accepts Insert/Erase from multiple foreground
// threads — each write takes its unit's Writer-Lock — concurrently
// with readers and the live retrainer. The correctness bar everywhere
// is the serial oracle: callers partition keys across writers (per-key
// op order preserved), so the final index state must be bit-identical
// to a single-threaded replay of the same stream.
//
// This suite is in the CI TSan regex alongside ConcurrencyTest and
// DurableIndexTest: the W>=2 + R>=2 + retrainer interleavings here are
// exactly the data races the Writer-Lock must prevent.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/index_factory.h"
#include "src/core/chameleon_index.h"
#include "src/data/dataset.h"
#include "src/storage/durable_index.h"
#include "src/util/random.h"
#include "src/workload/driver.h"
#include "src/workload/workload_spec.h"

namespace chameleon {
namespace {

/// Aggressive retraining (same knobs as ConcurrencyTest::StressConfig)
/// so the background thread actually swaps units under the writers.
ChameleonConfig StressConfig() {
  ChameleonConfig config;
  config.retrain_threshold_pct = 10;
  config.max_retrains_per_pass = 64;
  config.dare.ga.population = 8;
  config.dare.ga.generations = 5;
  config.dare.fitness_sample = 1'000;
  return config;
}

/// Applies `ops` serially, asserting every op is valid (the generator
/// guarantees it against serial per-key state).
void ApplySerial(KvIndex* index, const std::vector<Operation>& ops) {
  for (const Operation& op : ops) {
    switch (op.type) {
      case OpType::kLookup:
        ASSERT_TRUE(index->Lookup(op.key, nullptr)) << op.key;
        break;
      case OpType::kInsert:
        ASSERT_TRUE(index->Insert(op.key, op.value)) << op.key;
        break;
      case OpType::kErase:
        ASSERT_TRUE(index->Erase(op.key)) << op.key;
        break;
      case OpType::kUpdate:
      case OpType::kScan:
        FAIL() << "MixedReadWrite never emits " << OpTypeName(op.type);
    }
  }
}

/// Runs `ops` against `index` on `writers` threads (key-ownership
/// partition: thread t owns key % writers == t) with `readers` extra
/// lookup threads hammering random loaded keys for the duration.
/// Returns the number of failed writer-side ops (must be 0: per-key
/// order is preserved, so every op is valid when it executes).
size_t RunPartitioned(KvIndex* index, const std::vector<Operation>& ops,
                      const std::vector<Key>& read_pool, size_t writers,
                      size_t readers) {
  std::vector<std::vector<Operation>> owned(writers);
  for (const Operation& op : ops) {
    owned[static_cast<size_t>(op.key) % writers].push_back(op);
  }
  std::atomic<size_t> misses{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> reader_threads;
  for (size_t r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      // Hit rate is irrelevant (writers churn the live set); the point
      // is racing raw probes against displacing writes and unit swaps.
      Rng rng(900 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        (void)index->Lookup(read_pool[rng.NextBounded(read_pool.size())],
                            nullptr);
      }
    });
  }
  std::vector<std::thread> writer_threads;
  for (size_t w = 0; w < writers; ++w) {
    writer_threads.emplace_back([&, w] {
      for (const Operation& op : owned[w]) {
        bool ok = true;
        switch (op.type) {
          case OpType::kLookup:
            ok = index->Lookup(op.key, nullptr);
            break;
          case OpType::kInsert:
            ok = index->Insert(op.key, op.value);
            break;
          case OpType::kErase:
            ok = index->Erase(op.key);
            break;
          case OpType::kUpdate:
          case OpType::kScan:
            ok = false;  // MixedReadWrite never emits these
            break;
        }
        if (!ok) misses.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : writer_threads) t.join();
  stop.store(true);
  for (std::thread& t : reader_threads) t.join();
  return misses.load();
}

TEST(MultiWriterTest, CapabilityQueryAndStickiness) {
  ChameleonIndex index(StressConfig());
  EXPECT_TRUE(index.SupportsConcurrentWrites());
  EXPECT_TRUE(index.EnableConcurrentWrites());
  EXPECT_TRUE(index.EnableConcurrentWrites());  // idempotent
  // Multi-writer mode survives a retrainer start/stop cycle: writers
  // must keep taking unit locks after StopRetrainer returns.
  index.BulkLoad(ToKeyValues(GenerateDataset(DatasetKind::kUden, 5'000, 1)));
  index.StartRetrainer(std::chrono::milliseconds(2));
  index.StopRetrainer();
  ASSERT_TRUE(index.Insert(1, 1));
  EXPECT_TRUE(index.Lookup(1, nullptr));
}

TEST(MultiWriterTest, WritersReadersRetrainerMatchSerialOracle) {
  // The tentpole stress: W=2 writers + R=2 readers + live retrainer on
  // 40k mixed ops. The multi-threaded final state must be bit-equal to
  // the serial oracle — same size, same sorted (key,value) sequence.
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kFace, 30'000, 17);
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("mixed(w=0.7)"), keys, 19, 40'000);

  ChameleonIndex serial(StressConfig());
  serial.BulkLoad(ToKeyValues(keys));
  ApplySerial(&serial, ops);

  ChameleonIndex index(StressConfig());
  index.BulkLoad(ToKeyValues(keys));
  ASSERT_TRUE(index.EnableConcurrentWrites());
  index.StartRetrainer(std::chrono::milliseconds(1));
  const size_t misses = RunPartitioned(&index, ops, keys, 2, 2);
  index.StopRetrainer();

  EXPECT_EQ(misses, 0u);
  EXPECT_EQ(index.size(), serial.size());
  std::vector<KeyValue> got, want;
  index.RangeScan(0, kMaxKey - 1, &got);
  serial.RangeScan(0, kMaxKey - 1, &want);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want) << "multi-writer state diverged from oracle";

  // The contention map has one entry per unit, write-only weights.
  const obs::Heatmap contention = index.WriteContentionSnapshot();
  EXPECT_EQ(contention.size(), index.HeatmapSnapshot().size());
  for (const obs::UnitHeat& u : contention) EXPECT_EQ(u.reads, 0u);
}

TEST(MultiWriterTest, FourWritersWithoutRetrainerMatchSerialOracle) {
  // Wider fan-out, no retrainer: isolates writer/writer and
  // writer/reader interleavings from retrain swaps.
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kLogn, 20'000, 29);
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("mixed(w=0.8)"), keys, 31, 30'000);

  ChameleonIndex serial(StressConfig());
  serial.BulkLoad(ToKeyValues(keys));
  ApplySerial(&serial, ops);

  ChameleonIndex index(StressConfig());
  index.BulkLoad(ToKeyValues(keys));
  ASSERT_TRUE(index.EnableConcurrentWrites());
  EXPECT_EQ(RunPartitioned(&index, ops, keys, 4, 2), 0u);

  EXPECT_EQ(index.size(), serial.size());
  std::vector<KeyValue> got, want;
  index.RangeScan(0, kMaxKey - 1, &got);
  serial.RangeScan(0, kMaxKey - 1, &want);
  EXPECT_TRUE(got == want);
}

TEST(MultiWriterTest, DurableStackAcceptsConcurrentWriters) {
  // The acceptance-criterion stack: Durable(dir):Chameleon with W=2 +
  // R=2 + live retrainer, driven through the workload driver's
  // key-partitioned replay (the exact path bench_fig11 --rthreads=2
  // takes), checked against a serial oracle replay of the same stream.
  const std::string dir =
      ::testing::TempDir() + "/multi_writer_durable";
  std::filesystem::remove_all(dir);
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kOsmc, 20'000, 37);
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("mixed(w=0.6)"), keys, 41, 30'000);

  std::unique_ptr<KvIndex> serial = MakeIndex("Chameleon");
  serial->BulkLoad(ToKeyValues(keys));
  ApplySerial(serial.get(), ops);

  DurableOptions options;
  options.wal.fsync = FsyncPolicy::kEveryN;  // group commit under contention
  auto index = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir,
                                              options);
  index->BulkLoad(ToKeyValues(keys));
  ASSERT_TRUE(index->SupportsConcurrentWrites());
  auto* inner = dynamic_cast<ChameleonIndex*>(&index->inner());
  ASSERT_NE(inner, nullptr);
  inner->StartRetrainer(std::chrono::milliseconds(1));

  ReplayOptions ro;
  ro.threads = 2;
  const ReplayResult result = Replay(index.get(), ops, ro);
  inner->StopRetrainer();
  EXPECT_EQ(result.ops, ops.size());
  EXPECT_EQ(result.misses, 0u);

  EXPECT_EQ(index->size(), serial->size());
  std::vector<KeyValue> got, want;
  index->RangeScan(0, kMaxKey - 1, &got);
  serial->RangeScan(0, kMaxKey - 1, &want);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want);

  // And the durable half of the contract still holds afterwards: the
  // full multi-writer WAL replays to the oracle state. (fsync=everyN
  // acks ahead of the sync barrier, so flush the tail explicitly —
  // bounded loss past the barrier is that policy's documented window,
  // not what this test measures.)
  index->wal().Sync();
  index->SimulateCrash();
  index.reset();
  auto recovered = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir,
                                                  options);
  ASSERT_TRUE(recovered->Recover());
  EXPECT_EQ(recovered->size(), want.size());
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(MultiWriterTest, ShardedStackRequiresAllShardsCapable) {
  std::unique_ptr<KvIndex> capable = MakeIndex("Sharded4:Chameleon");
  ASSERT_NE(capable, nullptr);
  EXPECT_TRUE(capable->SupportsConcurrentWrites());
  EXPECT_TRUE(capable->EnableConcurrentWrites());

  std::unique_ptr<KvIndex> incapable = MakeIndex("Sharded4:B+Tree");
  ASSERT_NE(incapable, nullptr);
  EXPECT_FALSE(incapable->SupportsConcurrentWrites());
  EXPECT_FALSE(incapable->EnableConcurrentWrites());
}

TEST(MultiWriterTest, BaselineIndexesDeclineConcurrentWrites) {
  for (const char* name : {"B+Tree", "PGM", "ALEX", "LIPP"}) {
    std::unique_ptr<KvIndex> index = MakeIndex(name);
    ASSERT_NE(index, nullptr) << name;
    EXPECT_FALSE(index->SupportsConcurrentWrites()) << name;
    EXPECT_FALSE(index->EnableConcurrentWrites()) << name;
    EXPECT_TRUE(index->WriteContentionSnapshot().empty()) << name;
  }
}

}  // namespace
}  // namespace chameleon
