// Workload-driver tests: R = 1 parity with the historical bench_util
// replay loops, warmup exclusion, batched-lookup mode, and multi-thread
// read-only replay correctness (per-thread histogram merge included).

#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/index_factory.h"
#include "src/api/kv_index.h"
#include "src/data/dataset.h"
#include "src/engine/sharded_index.h"
#include "src/obs/latency_histogram.h"
#include "src/workload/driver.h"
#include "src/workload/workload_spec.h"

namespace chameleon {
namespace {

class DriverTest : public ::testing::Test {
 protected:
  std::unique_ptr<KvIndex> index_;
  std::vector<Key> keys_;

  void SetUp() override {
    keys_ = GenerateDataset(DatasetKind::kLogn, 20'000, /*seed=*/7);
    index_ = MakeIndex("Chameleon");
    index_->BulkLoad(ToKeyValues(keys_));
  }
};

TEST_F(DriverTest, SingleThreadReadOnlyCountsEveryOp) {
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("read"), keys_, 3, 5'000);
  obs::LatencyHistogram hist;
  const ReplayResult r = Replay(index_.get(), ops, ReplayOptions{}, &hist);
  EXPECT_EQ(r.ops, ops.size());
  EXPECT_EQ(r.misses, 0u);
  EXPECT_GT(r.busy_ns, 0);
  EXPECT_GT(r.wall_ns, 0);
  EXPECT_EQ(hist.count(), ops.size());
  EXPECT_GT(r.MeanNs(), 0.0);
  EXPECT_GT(r.ThroughputMops(), 0.0);
}

TEST_F(DriverTest, MissesAreCountedNotHidden) {
  // Lookups of absent keys and duplicate inserts must surface as misses.
  std::vector<Operation> ops;
  ops.push_back({OpType::kLookup, keys_.front(), 0});
  ops.push_back({OpType::kLookup, keys_.front() + 1, 0});  // absent
  ops.push_back({OpType::kInsert, keys_.front(), 1});      // duplicate
  ops.push_back({OpType::kErase, keys_.front() + 1, 0});   // absent
  const ReplayResult r = Replay(index_.get(), ops, ReplayOptions{});
  EXPECT_EQ(r.ops, 4u);
  EXPECT_EQ(r.misses, 3u);
}

TEST_F(DriverTest, WarmupAppliesOpsButExcludesThemFromMeasurement) {
  // Warmup inserts populate the index; the measured tail then reads
  // them back. Misses must be zero *because* warmup was applied, and
  // neither the histogram nor ops may include the warmup prefix.
  std::vector<Operation> ops;
  for (Key k = 1; k <= 100; ++k) {
    ops.push_back({OpType::kInsert, keys_.back() + k * 7, k});
  }
  for (Key k = 1; k <= 100; ++k) {
    ops.push_back({OpType::kLookup, keys_.back() + k * 7, 0});
  }
  obs::LatencyHistogram hist;
  ReplayOptions options;
  options.warmup = 100;
  const ReplayResult r = Replay(index_.get(), ops, options, &hist);
  EXPECT_EQ(r.ops, 100u);
  EXPECT_EQ(r.misses, 0u);
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(index_->size(), 20'000u + 100u);
}

TEST_F(DriverTest, WarmupLargerThanStreamIsClamped) {
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("read"), keys_, 5, 50);
  ReplayOptions options;
  options.warmup = 1'000;
  const ReplayResult r = Replay(index_.get(), ops, options);
  EXPECT_EQ(r.ops, 0u);
  EXPECT_EQ(r.misses, 0u);
  EXPECT_EQ(r.MeanNs(), 0.0);
}

TEST_F(DriverTest, BatchedModeMatchesPerKeyResults) {
  std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("mixed(w=0.3)"), keys_, 9, 4'000);
  for (size_t batch : {2u, 8u, 64u}) {
    // Fresh index per run: the stream contains writes.
    std::unique_ptr<KvIndex> index = MakeIndex("Chameleon");
    index->BulkLoad(ToKeyValues(keys_));
    obs::LatencyHistogram hist;
    ReplayOptions options;
    options.batch = batch;
    const ReplayResult r = Replay(index.get(), ops, options, &hist);
    EXPECT_EQ(r.ops, ops.size()) << batch;
    // The generator emits only valid operations, so batched probing
    // must find exactly what per-key probing finds: everything.
    EXPECT_EQ(r.misses, 0u) << batch;
    EXPECT_EQ(hist.count(), ops.size()) << batch;
  }
}

TEST_F(DriverTest, MultiThreadReadOnlyReplayFindsEveryKey) {
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("read"), keys_, 13, 8'000);
  for (size_t threads : {2u, 4u}) {
    obs::LatencyHistogram hist;
    ReplayOptions options;
    options.threads = threads;
    const ReplayResult r = Replay(index_.get(), ops, options, &hist);
    EXPECT_EQ(r.ops, ops.size()) << threads;
    EXPECT_EQ(r.misses, 0u) << threads;
    // Per-thread histograms merge exactly: one sample per operation.
    EXPECT_EQ(hist.count(), ops.size()) << threads;
    // busy_ns sums per-thread replay time; no relation to wall_ns is
    // asserted (thread spawn and scheduling dominate on small chunks,
    // and CI containers may pin everything to one core).
    EXPECT_GT(r.busy_ns, 0);
    EXPECT_GT(r.wall_ns, 0);
  }
}

TEST_F(DriverTest, MultiThreadBatchedAgainstShardedEngine) {
  // The full serving stack: sharded engine underneath, batched lookups
  // fanned out over reader threads on top.
  std::unique_ptr<KvIndex> sharded = MakeIndex("Sharded4:Chameleon");
  ASSERT_NE(sharded, nullptr);
  sharded->BulkLoad(ToKeyValues(keys_));
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("read"), keys_, 17, 8'000);
  obs::LatencyHistogram hist;
  ReplayOptions options;
  options.threads = 4;
  options.batch = 16;
  const ReplayResult r = Replay(sharded.get(), ops, options, &hist);
  EXPECT_EQ(r.ops, ops.size());
  EXPECT_EQ(r.misses, 0u);
  EXPECT_EQ(hist.count(), ops.size());
}

TEST_F(DriverTest, MoreThreadsThanOpsIsClamped) {
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("read"), keys_, 19, 3);
  ReplayOptions options;
  options.threads = 64;
  const ReplayResult r = Replay(index_.get(), ops, options);
  EXPECT_EQ(r.ops, 3u);
  EXPECT_EQ(r.misses, 0u);
}

TEST_F(DriverTest, MixedMultiThreadReplayMatchesSerialOracle) {
  // The key-ownership partition preserves per-key op order, so the
  // multi-threaded final state must be bit-identical to a serial
  // replay of the same stream — checked key by key against an index
  // replayed on one thread.
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("mixed(w=0.5)"), keys_, 23, 12'000);

  std::unique_ptr<KvIndex> serial = MakeIndex("Chameleon");
  serial->BulkLoad(ToKeyValues(keys_));
  const ReplayResult sr = Replay(serial.get(), ops, ReplayOptions{});
  EXPECT_EQ(sr.misses, 0u);

  for (size_t threads : {2u, 4u}) {
    std::unique_ptr<KvIndex> index = MakeIndex("Chameleon");
    index->BulkLoad(ToKeyValues(keys_));
    obs::LatencyHistogram hist;
    ReplayOptions options;
    options.threads = threads;
    const ReplayResult r = Replay(index.get(), ops, options, &hist);
    EXPECT_EQ(r.ops, ops.size()) << threads;
    // Per-key order preservation means reads observe exactly the
    // serial per-key state: zero spurious misses.
    EXPECT_EQ(r.misses, 0u) << threads;
    EXPECT_EQ(hist.count(), ops.size()) << threads;
    EXPECT_EQ(index->size(), serial->size()) << threads;
    for (const Operation& op : ops) {
      Value expected = 0, got = 0;
      const bool serial_hit = serial->Lookup(op.key, &expected);
      const bool multi_hit = index->Lookup(op.key, &got);
      ASSERT_EQ(multi_hit, serial_hit) << "key " << op.key;
      if (serial_hit) {
        ASSERT_EQ(got, expected) << "key " << op.key;
      }
    }
  }
}

TEST_F(DriverTest, WriteBearingReplayIsRefusedWhenUnsupported) {
  // B+Tree declines EnableConcurrentWrites; the driver must refuse the
  // 4-thread replay before any op runs, warm-up included, rather than
  // corrupt the index or run a mislabeled single-threaded replay.
  std::unique_ptr<KvIndex> btree = MakeIndex("B+Tree");
  ASSERT_NE(btree, nullptr);
  ASSERT_FALSE(btree->SupportsConcurrentWrites());
  btree->BulkLoad(ToKeyValues(keys_));
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("insdel(u=1)"), keys_, 29, 4'000);
  obs::LatencyHistogram hist;
  ReplayOptions options;
  options.threads = 4;
  options.warmup = 1'000;
  EXPECT_THROW(Replay(btree.get(), ops, options, &hist),
               std::invalid_argument);
  EXPECT_EQ(btree->size(), keys_.size());
  EXPECT_EQ(hist.count(), 0u);
}

/// Accepts concurrent writes and throws from every Insert: the error
/// path of the driver's replay threads.
class ThrowingIndex final : public KvIndex {
 public:
  void BulkLoad(std::span<const KeyValue>) override {}
  bool Lookup(Key, Value*) const override { return true; }
  bool Insert(Key, Value) override {
    throw std::runtime_error("insert failed");
  }
  bool Erase(Key) override { return true; }
  size_t RangeScan(Key, Key, std::vector<KeyValue>*) const override {
    return 0;
  }
  size_t size() const override { return 0; }
  size_t SizeBytes() const override { return 0; }
  IndexStats Stats() const override { return {}; }
  std::string_view Name() const override { return "ThrowingIndex"; }
  bool SupportsConcurrentWrites() const override { return true; }
  bool EnableConcurrentWrites() override { return true; }
};

TEST_F(DriverTest, ReplayThreadFailureReachesTheCaller) {
  // Every replay thread is joined, then Replay rethrows the exception
  // one of them threw (instead of it escaping a thread and ending the
  // process).
  ThrowingIndex index;
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("mixed(w=0.5)"), keys_, 31, 1'000);
  ReplayOptions options;
  options.threads = 2;
  EXPECT_THROW(Replay(&index, ops, options), std::runtime_error);
}

TEST_F(DriverTest, EmptyStreamIsANoOp) {
  const ReplayResult r =
      Replay(index_.get(), std::span<const Operation>{}, ReplayOptions{});
  EXPECT_EQ(r.ops, 0u);
  EXPECT_EQ(r.misses, 0u);
  EXPECT_EQ(r.MeanNs(), 0.0);
  EXPECT_EQ(r.ThroughputMops(), 0.0);
}

}  // namespace
}  // namespace chameleon
