// Tests for the assembled Chameleon index: modes, frame structure,
// stats, retraining, and the non-blocking retraining thread.

#include <algorithm>
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

ChameleonConfig FastConfig(ChameleonMode mode) {
  ChameleonConfig config;
  config.mode = mode;
  config.dare.state_buckets = 32;
  config.dare.matrix_width = 16;
  config.dare.fitness_sample = 2'000;
  config.dare.ga.population = 12;
  config.dare.ga.generations = 8;
  config.tsmdp.state_buckets = 32;
  return config;
}

std::vector<KeyValue> TestData(DatasetKind kind = DatasetKind::kFace,
                               size_t n = 50'000) {
  return ToKeyValues(GenerateDataset(kind, n, 23));
}

TEST(ChameleonIndexTest, NamesMatchAblationModes) {
  EXPECT_EQ(ChameleonIndex(FastConfig(ChameleonMode::kEbhOnly)).Name(),
            "ChaB");
  EXPECT_EQ(ChameleonIndex(FastConfig(ChameleonMode::kDare)).Name(), "ChaDA");
  EXPECT_EQ(ChameleonIndex(FastConfig(ChameleonMode::kFull)).Name(),
            "Chameleon");
}

TEST(ChameleonIndexTest, FrameLevelsFollowPaperFormula) {
  ChameleonIndex index(FastConfig(ChameleonMode::kDare));
  // h = ceil(log2(n) / 10), min 2. n = 50k -> ceil(15.6/10) = 2.
  index.BulkLoad(TestData(DatasetKind::kUden, 50'000));
  EXPECT_EQ(index.frame_levels(), 2);
  // n = 2M -> ceil(21/10) = 3.
  index.BulkLoad(TestData(DatasetKind::kUden, 1'200'000));
  EXPECT_EQ(index.frame_levels(), 3);
}

class ChameleonModeTest : public ::testing::TestWithParam<ChameleonMode> {};

TEST_P(ChameleonModeTest, LookupAllAfterBulkLoad) {
  ChameleonIndex index(FastConfig(GetParam()));
  const std::vector<KeyValue> data = TestData();
  index.BulkLoad(data);
  EXPECT_EQ(index.size(), data.size());
  EXPECT_GE(index.num_units(), 1u);
  for (size_t i = 0; i < data.size(); i += 11) {
    Value v = 0;
    ASSERT_TRUE(index.Lookup(data[i].key, &v)) << i;
    EXPECT_EQ(v, data[i].value);
  }
}

TEST_P(ChameleonModeTest, StatsReflectStructure) {
  ChameleonIndex index(FastConfig(GetParam()));
  index.BulkLoad(TestData());
  const IndexStats stats = index.Stats();
  EXPECT_GE(stats.max_height, index.frame_levels());
  EXPECT_LE(stats.max_height, index.frame_levels() + 10);
  EXPECT_GT(stats.num_nodes, 1u);
  // EBH errors are bounded by construction and should be tiny on
  // average (Table V shows sub-1 average errors for all Cha variants).
  EXPECT_LT(stats.avg_error, 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ChameleonModeTest,
    ::testing::Values(ChameleonMode::kEbhOnly, ChameleonMode::kDare,
                      ChameleonMode::kFull),
    [](const auto& info) {
      switch (info.param) {
        case ChameleonMode::kEbhOnly: return "ChaB";
        case ChameleonMode::kDare: return "ChaDA";
        case ChameleonMode::kFull: return "ChaDATS";
      }
      return "unknown";
    });

TEST(ChameleonIndexTest, AblationsReduceErrorOrNodes) {
  // Table V's qualitative claim: adding DARE (and TSMDP) reduces node
  // counts and/or prediction error relative to the greedy ChaB.
  const std::vector<KeyValue> data = TestData(DatasetKind::kFace, 80'000);
  ChameleonIndex cha_b(FastConfig(ChameleonMode::kEbhOnly));
  cha_b.BulkLoad(data);
  ChameleonIndex cha_da(FastConfig(ChameleonMode::kDare));
  cha_da.BulkLoad(data);
  const IndexStats sb = cha_b.Stats();
  const IndexStats sda = cha_da.Stats();
  EXPECT_LT(sda.num_nodes, sb.num_nodes);
}

TEST(ChameleonIndexTest, RetrainOncePicksUpHotUnits) {
  ChameleonConfig config = FastConfig(ChameleonMode::kFull);
  config.retrain_threshold_pct = 10;
  ChameleonIndex index(config);
  const std::vector<KeyValue> data = TestData(DatasetKind::kOsmc, 30'000);
  index.BulkLoad(data);

  // Nothing to do right after a build.
  EXPECT_EQ(index.RetrainOnce(), 0u);

  // Hammer inserts so some units cross the threshold.
  for (const Operation& op :
       MaterializeWorkload(ParseWorkloadOrDie("insdel(u=1)"),
                           GenerateDataset(DatasetKind::kOsmc, 30'000, 23), 5,
                           20'000)) {
    ASSERT_TRUE(index.Insert(op.key, op.value));
  }
  const size_t before = index.size();
  EXPECT_GT(index.RetrainOnce(), 0u);
  EXPECT_GT(index.total_retrains(), 0u);
  // Retraining must not lose or duplicate keys.
  EXPECT_EQ(index.size(), before);
  std::vector<KeyValue> all;
  index.RangeScan(0, kMaxKey, &all);
  EXPECT_EQ(all.size(), before);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
}

TEST(ChameleonIndexTest, RetrainerThreadRunsConcurrentlyWithWorkload) {
  ChameleonConfig config = FastConfig(ChameleonMode::kFull);
  config.retrain_threshold_pct = 10;
  ChameleonIndex index(config);
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kFace, 20'000, 3);
  index.BulkLoad(ToKeyValues(keys));

  index.StartRetrainer(std::chrono::milliseconds(5));
  WorkloadGenerator gen(keys, 11);
  const std::vector<Operation> ops = Drain(
      *MakeOpSource(ParseWorkloadOrDie("mixed(w=0.5)"), gen, keys), 60'000);
  size_t lookups_ok = 0;
  for (const Operation& op : ops) {
    switch (op.type) {
      case OpType::kLookup: {
        Value v = 0;
        ASSERT_TRUE(index.Lookup(op.key, &v)) << op.key;
        ++lookups_ok;
        break;
      }
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
  // The workload can outrun the first retraining period; give the
  // thread (which is still running) up to 2 s to pick up the backlog of
  // drifted units before stopping it.
  for (int spin = 0; spin < 200 && index.total_retrains() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  index.StopRetrainer();
  EXPECT_GT(lookups_ok, 0u);
  EXPECT_GT(index.total_retrains(), 0u);
  // Full integrity check after the storm.
  EXPECT_EQ(index.size(), gen.live().size());
}

TEST(ChameleonIndexTest, TotalShiftsAccumulate) {
  ChameleonIndex index(FastConfig(ChameleonMode::kFull));
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kLogn, 20'000, 9);
  index.BulkLoad(ToKeyValues(keys));
  for (const Operation& op : MaterializeWorkload(
           ParseWorkloadOrDie("insdel(u=1)"), keys, 2, 10'000)) {
    index.Insert(op.key, op.value);
  }
  // Some inserts must have displaced keys (dense FACE-like regions).
  EXPECT_GT(index.total_shifts(), 0u);
}

TEST(ChameleonIndexTest, EmptyAndTinyIndexes) {
  ChameleonIndex index(FastConfig(ChameleonMode::kFull));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.Lookup(42, nullptr));
  EXPECT_TRUE(index.Insert(42, 1));
  EXPECT_TRUE(index.Lookup(42, nullptr));
  EXPECT_TRUE(index.Erase(42));
  EXPECT_EQ(index.size(), 0u);

  // Tiny bulk load.
  std::vector<KeyValue> tiny = {{1, 10}, {2, 20}, {3, 30}};
  index.BulkLoad(tiny);
  EXPECT_EQ(index.size(), 3u);
  Value v = 0;
  EXPECT_TRUE(index.Lookup(2, &v));
  EXPECT_EQ(v, 20u);
}

TEST(ChameleonIndexTest, FullReconstructionTriggersOnUpdateVolume) {
  // Sec. V, Limitation (1): cumulative updates past the threshold force
  // a complete DARE-driven reconstruction.
  ChameleonConfig config = FastConfig(ChameleonMode::kFull);
  config.full_rebuild_threshold_pct = 100;  // rebuild at +100% updates
  ChameleonIndex index(config);
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kOsmc, 10'000, 31);
  index.BulkLoad(ToKeyValues(keys));
  EXPECT_EQ(index.total_full_rebuilds(), 0u);

  for (const Operation& op : MaterializeWorkload(
           ParseWorkloadOrDie("insdel(u=1)"), keys, 5, 15'000)) {
    ASSERT_TRUE(index.Insert(op.key, op.value));
  }
  EXPECT_GE(index.total_full_rebuilds(), 1u);
  // Nothing lost across the rebuild.
  EXPECT_EQ(index.size(), 25'000u);
  std::vector<KeyValue> all;
  index.RangeScan(0, kMaxKey - 1, &all);
  EXPECT_EQ(all.size(), 25'000u);
}

TEST(ChameleonIndexTest, FullReconstructionDisabledWithRetrainer) {
  ChameleonConfig config = FastConfig(ChameleonMode::kFull);
  config.full_rebuild_threshold_pct = 50;
  ChameleonIndex index(config);
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kUden, 5'000, 37);
  index.BulkLoad(ToKeyValues(keys));
  index.StartRetrainer(std::chrono::milliseconds(5));
  for (const Operation& op : MaterializeWorkload(
           ParseWorkloadOrDie("insdel(u=1)"), keys, 7, 10'000)) {
    ASSERT_TRUE(index.Insert(op.key, op.value));
  }
  index.StopRetrainer();
  // Incremental retraining owned the structure; no wholesale rebuild.
  EXPECT_EQ(index.total_full_rebuilds(), 0u);
  EXPECT_EQ(index.size(), 15'000u);
}

}  // namespace
}  // namespace chameleon
