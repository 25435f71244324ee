// End-to-end tests for composed index-spec stacks (api + engine +
// storage + tiered): Sharded<N> over Durable builds one WAL+snapshot
// stack per shard under <dir>/shard-<i> plus a shards.meta routing
// file, crashes and recovers as a unit, and the pre-refactor
// Durable-over-Sharded order keeps its single-WAL layout byte-for-byte.
// A table pins what the stack walk answers for every composition:
// capabilities, heat and contention maps, tiered layers, crashability,
// and that every crashable composition recovers to the reference.

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/index_factory.h"
#include "src/data/dataset.h"
#include "src/engine/sharded_index.h"
#include "src/storage/durable_index.h"
#include "src/tiered/tiered_index.h"
#include "src/util/random.h"

namespace chameleon {
namespace {

namespace fs = std::filesystem;

class SpecStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/stack_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    const std::vector<Key> keys =
        GenerateDataset(DatasetKind::kLogn, 10'000, /*seed=*/17);
    data_ = ToKeyValues(keys);
    for (const KeyValue& kv : data_) reference_[kv.key] = kv.value;
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<KvIndex> Build(const std::string& spec) {
    std::string error;
    std::unique_ptr<KvIndex> index = MakeIndex(spec, &error);
    EXPECT_NE(index, nullptr) << spec << ": " << error;
    return index;
  }

  /// Applies `n` acknowledged insert/erase ops, mirroring them into
  /// reference_. Keys are derived near loaded ones so they spread over
  /// every shard.
  void Churn(KvIndex* index, size_t n, uint64_t seed) {
    Rng rng(seed);
    size_t acked = 0;
    while (acked < n) {
      const Key base = data_[rng.NextBounded(data_.size())].key;
      if (rng.NextDouble() < 0.7) {
        const Key k = base + 1 + rng.NextBounded(64);
        const Value v = k ^ 0x5EED;
        // The index holds the reference's keys: an absent key goes in.
        ASSERT_EQ(index->Insert(k, v), !reference_.contains(k)) << k;
        if (reference_.emplace(k, v).second) ++acked;
      } else if (index->Erase(base)) {
        ASSERT_EQ(reference_.erase(base), 1u);
        ++acked;
      }
    }
  }

  void VerifyMatchesReference(const KvIndex& index) {
    ASSERT_EQ(index.size(), reference_.size());
    size_t i = 0;
    for (const auto& [key, value] : reference_) {
      if (++i % 3 != 0) continue;  // sample; full sweep is slow under TSan
      Value v = 0;
      ASSERT_TRUE(index.Lookup(key, &v)) << key;
      ASSERT_EQ(v, value) << key;
    }
  }

  /// True when `shard_dir` holds at least one WAL segment and one
  /// snapshot (the per-shard durable stack actually materialized).
  static bool HasWalAndSnapshot(const std::string& shard_dir) {
    bool wal = false, snap = false;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(shard_dir, ec)) {
      const std::string name = entry.path().filename().string();
      wal = wal || name.ends_with(".wal");
      snap = snap || name.ends_with(".snap");
    }
    return wal && snap;
  }

  std::string dir_;
  std::vector<KeyValue> data_;
  std::map<Key, Value> reference_;
};

TEST_F(SpecStackTest, ShardedDurableBuildsPerShardStacks) {
  const std::string spec =
      "Sharded4:Durable(" + dir_ + ",fsync=always):Chameleon";
  std::unique_ptr<KvIndex> index = Build(spec);
  index->BulkLoad(data_);
  for (int i = 0; i < 4; ++i) {
    const std::string shard_dir = dir_ + "/shard-" + std::to_string(i);
    EXPECT_TRUE(fs::is_directory(shard_dir)) << shard_dir;
    EXPECT_TRUE(HasWalAndSnapshot(shard_dir)) << shard_dir;
  }
  EXPECT_TRUE(fs::exists(dir_ + "/shards.meta"));
  VerifyMatchesReference(*index);
}

TEST_F(SpecStackTest, ShardedDurableCrashRecoverRestoresAllShards) {
  const std::string spec =
      "Sharded4:Durable(" + dir_ + ",fsync=always):Chameleon";
  {
    std::unique_ptr<KvIndex> index = Build(spec);
    index->BulkLoad(data_);
    Churn(index.get(), 800, 23);
    ASSERT_TRUE(SimulateCrashStack(index.get()));
  }
  std::unique_ptr<KvIndex> recovered = Build(spec);
  ASSERT_TRUE(recovered->Recover());
  VerifyMatchesReference(*recovered);
  // The recovered stack keeps serving writes.
  ASSERT_TRUE(recovered->Insert(reference_.rbegin()->first + 1000, 7));
}

TEST_F(SpecStackTest, SingleShardCrashRecoversWithTheRest) {
  const std::string spec =
      "Sharded2:Durable(" + dir_ + ",fsync=always):Chameleon";
  {
    std::unique_ptr<KvIndex> index = Build(spec);
    index->BulkLoad(data_);
    Churn(index.get(), 400, 29);
    // Kill exactly one shard's WAL; the sibling shuts down cleanly via
    // its destructor. Recovery must still restore the full key space.
    auto* sharded = dynamic_cast<ShardedIndex*>(index.get());
    ASSERT_NE(sharded, nullptr);
    ASSERT_EQ(sharded->num_shards(), 2u);
    ASSERT_TRUE(SimulateCrashStack(&sharded->shard(0)));
  }
  std::unique_ptr<KvIndex> recovered = Build(spec);
  ASSERT_TRUE(recovered->Recover());
  VerifyMatchesReference(*recovered);
}

TEST_F(SpecStackTest, ShardedDurableBTreeCrashRecovers) {
  // The generic sorted-pairs snapshot path (non-Chameleon inner) rides
  // the same per-shard layout.
  const std::string spec = "Sharded2:Durable(" + dir_ + ",fsync=always):B+Tree";
  {
    std::unique_ptr<KvIndex> index = Build(spec);
    index->BulkLoad(data_);
    Churn(index.get(), 400, 31);
    ASSERT_TRUE(SimulateCrashStack(index.get()));
  }
  std::unique_ptr<KvIndex> recovered = Build(spec);
  ASSERT_TRUE(recovered->Recover());
  VerifyMatchesReference(*recovered);
}

TEST_F(SpecStackTest, RecoverFailsWithoutMetaOrOnShardCountMismatch) {
  const std::string spec2 =
      "Sharded2:Durable(" + dir_ + ",fsync=always):Chameleon";
  // Nothing on disk yet: no shards.meta, nothing to recover.
  EXPECT_FALSE(Build(spec2)->Recover());

  {
    std::unique_ptr<KvIndex> index = Build(spec2);
    index->BulkLoad(data_);
    ASSERT_TRUE(SimulateCrashStack(index.get()));
  }
  // A different shard count cannot adopt the on-disk layout: the meta
  // pins the partition the directories were built with.
  const std::string spec4 =
      "Sharded4:Durable(" + dir_ + ",fsync=always):Chameleon";
  EXPECT_FALSE(Build(spec4)->Recover());
  // The matching count still can.
  std::unique_ptr<KvIndex> recovered = Build(spec2);
  ASSERT_TRUE(recovered->Recover());
  VerifyMatchesReference(*recovered);
}

TEST_F(SpecStackTest, DurableOverShardedKeepsSingleWalLayout) {
  // The pre-refactor composition order: one WAL+snapshot stack over the
  // whole sharded engine. No per-shard directories, no shards.meta.
  const std::string spec =
      "Durable(" + dir_ + ",fsync=always):Sharded2:Chameleon";
  {
    std::unique_ptr<KvIndex> index = Build(spec);
    index->BulkLoad(data_);
    EXPECT_TRUE(HasWalAndSnapshot(dir_));
    EXPECT_FALSE(fs::exists(dir_ + "/shards.meta"));
    EXPECT_FALSE(fs::exists(dir_ + "/shard-0"));
    Churn(index.get(), 400, 37);
    ASSERT_TRUE(SimulateCrashStack(index.get()));
  }
  std::unique_ptr<KvIndex> recovered = Build(spec);
  ASSERT_TRUE(recovered->Recover());
  VerifyMatchesReference(*recovered);
}

TEST_F(SpecStackTest, StackWalkAnswersPerComposition) {
  // What every generic stack walk answers, per composition. Adapters
  // that pass operations through (Sharded, Durable) take their answers
  // from the layers below; Disk is a terminal: its delta is private
  // state, so the walk never reaches the Chameleon underneath it.
  struct Case {
    std::string spec;  // "@" and "#" are replaced by two fresh dirs
    bool concurrent_writes;
    bool heat;            // heat rows: Chameleon units or Disk pages
    bool contention_map;  // one contention row per heat row
    size_t tiered_layers;
    bool crashable;
  };
  const std::vector<Case> cases = {
      {"Chameleon", true, true, true, 0, false},
      {"Sharded4:B+Tree", false, false, false, 0, false},
      {"Sharded4:Chameleon", true, true, true, 0, false},
      {"Durable(@):Sharded2:Chameleon", true, true, true, 0, true},
      {"Sharded2:Durable(@):Chameleon", true, true, true, 0, true},
      {"Disk(@):Chameleon", false, true, false, 1, false},
      {"Sharded2:Disk(@):Chameleon", false, true, false, 2, false},
      {"Durable(@):Disk(#):Chameleon", false, true, false, 1, true},
      {"Sharded1:Durable(@):Chameleon", true, true, true, 0, true},
      {"Sharded2:Durable(@):Disk(#):Chameleon", false, true, false, 2, true},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    SCOPED_TRACE(c.spec);
    std::string spec = c.spec;
    const std::string case_dir = dir_ + "/" + std::to_string(i);
    if (const size_t at = spec.find('@'); at != std::string::npos) {
      spec.replace(at, 1, case_dir + "/a");
    }
    if (const size_t hash = spec.find('#'); hash != std::string::npos) {
      spec.replace(hash, 1, case_dir + "/b");
    }
    std::unique_ptr<KvIndex> index = Build(spec);
    ASSERT_NE(index, nullptr);
    index->BulkLoad(data_);
    if (c.spec.starts_with("Sharded1:")) {
      // One shard is the inner stack: no shard directory, no routing file.
      EXPECT_TRUE(HasWalAndSnapshot(case_dir + "/a"));
      EXPECT_FALSE(fs::exists(case_dir + "/a/shard-0"));
      EXPECT_FALSE(fs::exists(case_dir + "/a/shards.meta"));
    }

    EXPECT_EQ(index->SupportsConcurrentWrites(), c.concurrent_writes);
    EXPECT_EQ(index->EnableConcurrentWrites(), c.concurrent_writes);
    Churn(index.get(), 300, 41 + i);
    EXPECT_EQ(index->size(), reference_.size());

    // Every shard contributes its heat rows, in shard order: together
    // they cover the loaded key range in key order.
    const obs::Heatmap heat = index->HeatmapSnapshot();
    EXPECT_EQ(heat.empty(), !c.heat);
    if (!heat.empty()) {
      EXPECT_LE(heat.front().lo, data_.front().key);
      EXPECT_GT(heat.back().hi, data_.back().key);
    }
    for (size_t r = 1; r < heat.size(); ++r) {
      EXPECT_LE(heat[r - 1].lo, heat[r].lo) << "row " << r;
    }
    const obs::Heatmap contention = index->WriteContentionSnapshot();
    EXPECT_EQ(contention.size(), c.contention_map ? heat.size() : 0u);

    TieredStatsBlock tiered;
    EXPECT_EQ(CollectTieredStats(index.get(), &tiered), c.tiered_layers > 0);
    EXPECT_EQ(tiered.layers, c.tiered_layers);
    if (c.tiered_layers > 0) {
      // Disk heat is one row per page, summed over every tiered layer.
      EXPECT_EQ(heat.size(), tiered.pages);
      EXPECT_EQ(tiered.disk_entries, data_.size());
      EXPECT_EQ(tiered.delta_entries + tiered.disk_entries -
                    tiered.tombstones,
                reference_.size());
    }

    EXPECT_EQ(SimulateCrashStack(index.get()), c.crashable);
    index.reset();
    if (c.crashable) {
      // A fresh stack over the same directories recovers what was
      // acknowledged before the crash.
      std::unique_ptr<KvIndex> recovered = Build(spec);
      ASSERT_NE(recovered, nullptr);
      ASSERT_TRUE(recovered->Recover());
      VerifyMatchesReference(*recovered);
    }
    // Each case starts from the loaded data set again.
    reference_.clear();
    for (const KeyValue& kv : data_) reference_[kv.key] = kv.value;
  }
}

}  // namespace
}  // namespace chameleon
