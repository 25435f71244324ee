// Tests for index structure persistence (ChameleonIndex::SaveTo /
// LoadFrom, core/serialize.cc).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/chameleon_index.h"
#include "src/data/dataset.h"
#include "src/obs/stats.h"
#include "src/util/timer.h"
#include "src/workload/workload_spec.h"

namespace chameleon {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// SaveTo into a fresh file at `path`.
bool SaveFile(const ChameleonIndex& index, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = index.SaveTo(f);
  return std::fclose(f) == 0 && ok;
}

/// LoadFrom the file at `path`; false when it cannot be opened.
bool LoadFile(ChameleonIndex* index, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  const bool ok = index->LoadFrom(f);
  std::fclose(f);
  return ok;
}

TEST(SerializeTest, RoundTripPreservesEverything) {
  const std::string path = TempPath("cham_roundtrip.bin");
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kFace, 30'000, 3);
  ChameleonIndex original;
  original.BulkLoad(ToKeyValues(keys));
  const IndexStats before = original.Stats();
  ASSERT_TRUE(SaveFile(original, path));

  ChameleonIndex restored;
  ASSERT_TRUE(LoadFile(&restored, path));
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.num_units(), original.num_units());
  EXPECT_EQ(restored.frame_levels(), original.frame_levels());
  const IndexStats after = restored.Stats();
  EXPECT_EQ(after.num_nodes, before.num_nodes);
  EXPECT_EQ(after.max_height, before.max_height);
  EXPECT_DOUBLE_EQ(after.max_error, before.max_error);

  // Every key with its payload; negatives still negative.
  const std::vector<KeyValue> data = ToKeyValues(keys);
  for (size_t i = 0; i < data.size(); i += 7) {
    Value v = 0;
    ASSERT_TRUE(restored.Lookup(data[i].key, &v)) << i;
    EXPECT_EQ(v, data[i].value);
  }
  EXPECT_FALSE(restored.Lookup(keys.back() + 12'345, nullptr));
  std::remove(path.c_str());
}

TEST(SerializeTest, RestoredIndexIsFullyOperational) {
  const std::string path = TempPath("cham_ops.bin");
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kLogn, 20'000, 5);
  {
    ChameleonIndex index;
    index.BulkLoad(ToKeyValues(keys));
    ASSERT_TRUE(SaveFile(index, path));
  }
  ChameleonIndex index;
  ASSERT_TRUE(LoadFile(&index, path));

  // Updates, scans, and retraining all work on the restored structure.
  WorkloadGenerator gen(keys, 7);
  for (const Operation& op :
       Drain(*MakeOpSource(ParseWorkloadOrDie("mixed(w=0.5)"), gen, keys),
             30'000)) {
    switch (op.type) {
      case OpType::kLookup:
        ASSERT_TRUE(index.Lookup(op.key, nullptr)) << op.key;
        break;
      case OpType::kInsert:
        ASSERT_TRUE(index.Insert(op.key, op.value));
        break;
      case OpType::kErase:
        ASSERT_TRUE(index.Erase(op.key));
        break;
      case OpType::kUpdate:
      case OpType::kScan:
        FAIL() << "MixedReadWrite never emits " << OpTypeName(op.type);
    }
  }
  EXPECT_EQ(index.size(), gen.live().size());
  (void)index.RetrainOnce();
  std::vector<KeyValue> all;
  index.RangeScan(0, kMaxKey - 1, &all);
  EXPECT_EQ(all.size(), gen.live().size());
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadIsFasterThanRebuild) {
  const std::string path = TempPath("cham_speed.bin");
  const std::vector<KeyValue> data =
      ToKeyValues(GenerateDataset(DatasetKind::kOsmc, 50'000, 9));
  ChameleonIndex index;
  Timer build_timer;
  index.BulkLoad(data);
  const double build_ms = build_timer.ElapsedMillis();
  ASSERT_TRUE(SaveFile(index, path));

  ChameleonIndex restored;
  Timer load_timer;
  ASSERT_TRUE(LoadFile(&restored, path));
  const double load_ms = load_timer.ElapsedMillis();
  // Loading skips DARE's GA and TSMDP entirely.
  EXPECT_LT(load_ms, build_ms);
  std::remove(path.c_str());
}

TEST(SerializeTest, SaveWithLiveRetrainerPausesItAndSucceeds) {
  // Regression for the documented footgun: SaveTo used to walk the
  // structure unlocked, so a live retraining thread could tear the
  // stream. It now pauses/drains the retrainer for the duration (and
  // counts doing so), then resumes it.
  const std::string path = TempPath("cham_retrainer_save.bin");
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kFace, 25'000, 13);
  ChameleonIndex index;
  index.BulkLoad(ToKeyValues(keys));
  // Churn so retrain passes have real work while saves are in flight.
  WorkloadGenerator gen(keys, 3);
  for (const Operation& op :
       Drain(*MakeOpSource(ParseWorkloadOrDie("insdel(u=0.5)"), gen, keys),
             8'000)) {
    if (op.type == OpType::kInsert) {
      index.Insert(op.key, op.value);
    } else {
      index.Erase(op.key);
    }
  }
#ifndef CHAMELEON_NO_STATS
  obs::StatsRegistry::Get().Reset();
#endif
  index.StartRetrainer(std::chrono::milliseconds(1));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(SaveFile(index, path)) << "save " << i;
  }
  index.StopRetrainer();
#ifndef CHAMELEON_NO_STATS
  EXPECT_EQ(obs::StatsRegistry::Get().Total(obs::Counter::kSaveRetrainerPauses),
            5u);
  obs::StatsRegistry::Get().Reset();
#endif

  // The stream written under a live retrainer is intact and complete.
  ChameleonIndex restored;
  ASSERT_TRUE(LoadFile(&restored, path));
  EXPECT_EQ(restored.size(), index.size());
  std::vector<KeyValue> all;
  restored.RangeScan(0, kMaxKey - 1, &all);
  EXPECT_EQ(all.size(), gen.live().size());
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsGarbageAndMissingFiles) {
  ChameleonIndex index;
  EXPECT_FALSE(LoadFile(&index, "/nonexistent/nope.chameleon"));

  const std::string path = TempPath("cham_garbage.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "this is not an index";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadFile(&index, path));
  std::remove(path.c_str());

  // Truncated valid prefix.
  const std::string good = TempPath("cham_good.bin");
  ChameleonIndex donor;
  donor.BulkLoad(ToKeyValues(GenerateDataset(DatasetKind::kUden, 5'000, 1)));
  ASSERT_TRUE(SaveFile(donor, good));
  const std::string trunc = TempPath("cham_trunc.bin");
  {
    std::FILE* src = std::fopen(good.c_str(), "rb");
    std::FILE* dst = std::fopen(trunc.c_str(), "wb");
    ASSERT_NE(src, nullptr);
    ASSERT_NE(dst, nullptr);
    char buf[4096];
    const size_t n = std::fread(buf, 1, sizeof(buf), src);
    std::fwrite(buf, 1, n / 2, dst);
    std::fclose(src);
    std::fclose(dst);
  }
  EXPECT_FALSE(LoadFile(&index, trunc));
  std::remove(good.c_str());
  std::remove(trunc.c_str());
}

}  // namespace
}  // namespace chameleon
