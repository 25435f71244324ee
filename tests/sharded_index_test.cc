// Engine-layer tests: ShardedIndex routing, the shards=1 pass-through
// guarantee, and equivalence of sharded vs unsharded serving under
// seeded mixed read/write replay (the ISSUE-3 acceptance criteria).

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/index_factory.h"
#include "src/api/kv_index.h"
#include "src/data/dataset.h"
#include "src/engine/sharded_index.h"
#include "src/util/random.h"
#include "src/workload/workload_spec.h"

namespace chameleon {
namespace {

std::vector<KeyValue> FaceData(size_t n, uint64_t seed = 7) {
  return ToKeyValues(GenerateDataset(DatasetKind::kFace, n, seed));
}

TEST(ShardedIndexTest, FactoryRejectsBadSpecs) {
  EXPECT_NE(MakeIndex("Sharded1:B+Tree"), nullptr);
  EXPECT_NE(MakeIndex("Sharded4:ALEX"), nullptr);
  EXPECT_EQ(MakeIndex("Sharded4:NoSuchIndex"), nullptr);
  EXPECT_EQ(MakeIndex("Sharded0:ALEX"), nullptr);
  EXPECT_EQ(MakeIndex("Sharded:ALEX"), nullptr);
  EXPECT_EQ(MakeIndex("Sharded4"), nullptr);
}

TEST(ShardedIndexTest, ShardsOneIsBitIdenticalPassThrough) {
  const std::vector<KeyValue> data = FaceData(20'000);
  for (const char* name : {"B+Tree", "ALEX", "Chameleon"}) {
    std::unique_ptr<KvIndex> plain = MakeIndex(name);
    std::unique_ptr<KvIndex> sharded =
        MakeIndex(std::string("Sharded1:") + name);
    ASSERT_NE(plain, nullptr);
    ASSERT_NE(sharded, nullptr);
    plain->BulkLoad(data);
    sharded->BulkLoad(data);

    // The single-shard adapter must not change the name, the answers,
    // the structure statistics, or the reported footprint.
    EXPECT_EQ(sharded->Name(), plain->Name());
    EXPECT_EQ(sharded->size(), plain->size());
    EXPECT_EQ(sharded->SizeBytes(), plain->SizeBytes());
    const IndexStats a = plain->Stats();
    const IndexStats b = sharded->Stats();
    EXPECT_EQ(a.max_height, b.max_height) << name;
    EXPECT_EQ(a.num_nodes, b.num_nodes) << name;
    EXPECT_DOUBLE_EQ(a.avg_height, b.avg_height) << name;
    EXPECT_DOUBLE_EQ(a.max_error, b.max_error) << name;
    EXPECT_DOUBLE_EQ(a.avg_error, b.avg_error) << name;
    for (size_t i = 0; i < data.size(); i += 37) {
      Value va = 0, vb = 0;
      ASSERT_EQ(plain->Lookup(data[i].key, &va),
                sharded->Lookup(data[i].key, &vb));
      ASSERT_EQ(va, vb);
      ASSERT_FALSE(sharded->Lookup(data[i].key + 1, nullptr) !=
                   plain->Lookup(data[i].key + 1, nullptr));
    }
  }
}

TEST(ShardedIndexTest, QuantileBoundariesBalanceSkewedLoad) {
  const std::vector<KeyValue> data = FaceData(16'000);
  std::unique_ptr<KvIndex> owned = MakeIndex("Sharded4:B+Tree");
  auto& index = dynamic_cast<ShardedIndex&>(*owned);
  index.BulkLoad(data);
  ASSERT_EQ(index.num_shards(), 4u);
  EXPECT_EQ(index.size(), data.size());
  // Rank-quantile cuts: every shard holds exactly n/N keys even though
  // FACE is heavily skewed in key space.
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(index.shard(s).size(), data.size() / 4) << "shard " << s;
  }
}

TEST(ShardedIndexTest, ShardForRoutesBoundariesAndOutOfRangeKeys) {
  std::vector<KeyValue> data;
  for (Key k = 100; k < 900; ++k) data.push_back({k, k});
  std::unique_ptr<KvIndex> owned = MakeIndex("Sharded4:B+Tree");
  auto& index = dynamic_cast<ShardedIndex&>(*owned);
  index.BulkLoad(data);

  // Cut ranks 0/200/400/600: shard boundaries at keys 300, 500, 700.
  EXPECT_EQ(index.ShardFor(100), 0u);
  EXPECT_EQ(index.ShardFor(299), 0u);
  EXPECT_EQ(index.ShardFor(300), 1u);
  EXPECT_EQ(index.ShardFor(499), 1u);
  EXPECT_EQ(index.ShardFor(500), 2u);
  EXPECT_EQ(index.ShardFor(700), 3u);
  EXPECT_EQ(index.ShardFor(899), 3u);
  // Below the loaded minimum routes to the first shard, above the
  // maximum to the last — inserts outside the bulk-load range work.
  EXPECT_EQ(index.ShardFor(0), 0u);
  EXPECT_EQ(index.ShardFor(kMaxKey), 3u);
  EXPECT_TRUE(index.Insert(5, 55));
  EXPECT_TRUE(index.Insert(5'000'000, 66));
  Value v = 0;
  EXPECT_TRUE(index.Lookup(5, &v));
  EXPECT_EQ(v, 55u);
  EXPECT_TRUE(index.Lookup(5'000'000, &v));
  EXPECT_EQ(v, 66u);
  EXPECT_EQ(index.shard(0).size(), 201u);
  EXPECT_EQ(index.shard(3).size(), 201u);
}

TEST(ShardedIndexTest, FewerKeysThanShardsLeavesTrailingShardsEmpty) {
  std::vector<KeyValue> data = {{10, 1}, {20, 2}};
  std::unique_ptr<KvIndex> owned = MakeIndex("Sharded4:B+Tree");
  auto& index = dynamic_cast<ShardedIndex&>(*owned);
  index.BulkLoad(data);
  EXPECT_EQ(index.size(), 2u);
  Value v = 0;
  EXPECT_TRUE(index.Lookup(10, &v));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(index.Lookup(20, &v));
  EXPECT_EQ(v, 2u);
  EXPECT_FALSE(index.Lookup(15, nullptr));
  std::vector<KeyValue> out;
  EXPECT_EQ(index.RangeScan(0, kMaxKey, &out), 2u);
}

TEST(ShardedIndexTest, ReloadWithFewerKeysThanShardsEmptiesTheRest) {
  // The reload leaves shards 2 and 3 an empty slice: each must drop the
  // first load rather than keep serving it.
  std::unique_ptr<KvIndex> index = MakeIndex("Sharded4:ALEX");
  ASSERT_NE(index, nullptr);
  const std::vector<KeyValue> first = FaceData(1'999);
  index->BulkLoad(first);
  const std::vector<KeyValue> second = {{first[10].key, 1},
                                        {first[20].key, 2}};
  index->BulkLoad(second);
  EXPECT_EQ(index->size(), 2u);
  std::vector<KeyValue> out;
  EXPECT_EQ(index->RangeScan(0, kMaxKey, &out), 2u);
  EXPECT_TRUE(out == second);
  size_t stale = 0;
  for (size_t i = 21; i < first.size(); ++i) {
    stale += index->Lookup(first[i].key, nullptr);
  }
  EXPECT_EQ(stale, 0u);
}

// The central acceptance criterion: a seeded mixed read/write stream
// replayed against shards=2 and shards=4 leaves the same final key set
// and returns the same lookup results as the unsharded index.
TEST(ShardedIndexTest, MixedReplayMatchesUnshardedAcrossShardCounts) {
  const std::vector<KeyValue> data = FaceData(20'000, 17);
  std::vector<Key> keys(data.size());
  for (size_t i = 0; i < data.size(); ++i) keys[i] = data[i].key;

  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("mixed(w=0.5)"), keys, 23, 8'000);

  std::unique_ptr<KvIndex> baseline = MakeIndex("Chameleon");
  baseline->BulkLoad(data);
  std::vector<bool> base_results;
  std::vector<Value> base_values;
  for (const Operation& op : ops) {
    Value v = 0;
    switch (op.type) {
      case OpType::kLookup:
        base_results.push_back(baseline->Lookup(op.key, &v));
        base_values.push_back(v);
        break;
      case OpType::kInsert:
        base_results.push_back(baseline->Insert(op.key, op.value));
        base_values.push_back(0);
        break;
      case OpType::kErase:
        base_results.push_back(baseline->Erase(op.key));
        base_values.push_back(0);
        break;
      case OpType::kUpdate:
      case OpType::kScan:
        FAIL() << "MixedReadWrite never emits " << OpTypeName(op.type);
    }
  }

  for (size_t shards : {2u, 4u}) {
    std::unique_ptr<KvIndex> sharded =
        MakeIndex("Sharded" + std::to_string(shards) + ":Chameleon");
    ASSERT_NE(sharded, nullptr);
    sharded->BulkLoad(data);
    for (size_t i = 0; i < ops.size(); ++i) {
      Value v = 0;
      bool ok = false;
      switch (ops[i].type) {
        case OpType::kLookup:
          ok = sharded->Lookup(ops[i].key, &v);
          if (ok) {
            ASSERT_EQ(v, base_values[i]) << "op " << i;
          }
          break;
        case OpType::kInsert:
          ok = sharded->Insert(ops[i].key, ops[i].value);
          break;
        case OpType::kErase:
          ok = sharded->Erase(ops[i].key);
          break;
        case OpType::kUpdate:
        case OpType::kScan:
          FAIL() << "MixedReadWrite never emits " << OpTypeName(ops[i].type);
      }
      ASSERT_EQ(ok, base_results[i]) << "op " << i << " shards " << shards;
    }
    // Same final key set: full-range scans agree element-for-element.
    std::vector<KeyValue> base_scan, shard_scan;
    baseline->RangeScan(0, kMaxKey, &base_scan);
    sharded->RangeScan(0, kMaxKey, &shard_scan);
    ASSERT_EQ(sharded->size(), baseline->size()) << "shards " << shards;
    ASSERT_EQ(shard_scan.size(), base_scan.size()) << "shards " << shards;
    for (size_t i = 0; i < base_scan.size(); ++i) {
      ASSERT_EQ(shard_scan[i].key, base_scan[i].key);
      ASSERT_EQ(shard_scan[i].value, base_scan[i].value);
    }
  }
}

TEST(ShardedIndexTest, CrossShardRangeScanStitchesSorted) {
  const std::vector<KeyValue> data = FaceData(12'000, 5);
  std::unique_ptr<KvIndex> sharded = MakeIndex("Sharded4:ALEX");
  std::unique_ptr<KvIndex> plain = MakeIndex("ALEX");
  sharded->BulkLoad(data);
  plain->BulkLoad(data);
  Rng rng(41);
  for (int i = 0; i < 40; ++i) {
    const size_t a = rng.NextBounded(data.size());
    // Spans long enough to cross shard boundaries regularly.
    const size_t b = std::min(data.size() - 1, a + rng.NextBounded(6'000));
    std::vector<KeyValue> got, expected;
    const size_t n = sharded->RangeScan(data[a].key, data[b].key, &got);
    plain->RangeScan(data[a].key, data[b].key, &expected);
    ASSERT_EQ(n, got.size());
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    for (size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j].key, expected[j].key);
      ASSERT_EQ(got[j].value, expected[j].value);
    }
  }
}

TEST(ShardedIndexTest, LookupBatchScatterGatherMatchesPerKey) {
  const std::vector<KeyValue> data = FaceData(10'000, 9);
  std::unique_ptr<KvIndex> sharded = MakeIndex("Sharded4:Chameleon");
  sharded->BulkLoad(data);

  Rng rng(51);
  std::vector<Key> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back(data[rng.NextBounded(data.size())].key);      // hit
    keys.push_back(data[rng.NextBounded(data.size())].key + 1);  // mostly miss
  }
  constexpr Value kSentinel = 0x5151515151515151ull;
  std::vector<Value> values(keys.size(), kSentinel);
  std::unique_ptr<bool[]> found(new bool[keys.size()]);
  sharded->LookupBatch(keys, values.data(), found.get());
  for (size_t i = 0; i < keys.size(); ++i) {
    Value v = kSentinel;
    ASSERT_EQ(found[i], sharded->Lookup(keys[i], &v)) << keys[i];
    // Misses must leave the caller's slot untouched.
    ASSERT_EQ(values[i], v) << keys[i];
  }
}

TEST(ShardedIndexTest, MergedStatsAndSizeBytesCoverAllShards) {
  const std::vector<KeyValue> data = FaceData(16'000, 3);
  std::unique_ptr<KvIndex> owned = MakeIndex("Sharded4:Chameleon");
  auto& index = dynamic_cast<ShardedIndex&>(*owned);
  index.BulkLoad(data);

  size_t nodes = 0, bytes = 0;
  int max_height = 0;
  double max_error = 0.0;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    const IndexStats st = index.shard(s).Stats();
    nodes += st.num_nodes;
    max_height = std::max(max_height, st.max_height);
    max_error = std::max(max_error, st.max_error);
    bytes += index.shard(s).SizeBytes();
  }
  const IndexStats merged = index.Stats();
  EXPECT_EQ(merged.num_nodes, nodes);
  EXPECT_EQ(merged.max_height, max_height);
  EXPECT_DOUBLE_EQ(merged.max_error, max_error);
  EXPECT_GE(merged.avg_height, 1.0);
  EXPECT_LE(merged.avg_height, static_cast<double>(merged.max_height) + 1e-9);
  EXPECT_LE(merged.avg_error, merged.max_error + 1e-9);
  // The adapter accounts for its own routing state on top of the shards.
  EXPECT_GT(index.SizeBytes(), bytes);
  EXPECT_LT(index.SizeBytes(), bytes + 4'096);
}

TEST(ShardedIndexTest, NameReflectsShardCount) {
  std::unique_ptr<KvIndex> one = MakeIndex("Sharded1:B+Tree");
  std::unique_ptr<KvIndex> four = MakeIndex("Sharded4:B+Tree");
  EXPECT_EQ(one->Name(), "B+Tree");
  EXPECT_EQ(four->Name(), "B+Tree/shards=4");
}

/// An empty shard whose BulkLoad and Recover throw while `fail` is set.
class FailingShard final : public KvIndex {
 public:
  bool fail = false;

  void BulkLoad(std::span<const KeyValue>) override {
    if (fail) throw std::runtime_error("shard build failed");
  }
  bool Recover() override {
    if (fail) throw std::runtime_error("shard recovery failed");
    return true;
  }
  bool Lookup(Key, Value*) const override { return false; }
  bool Insert(Key, Value) override { return false; }
  bool Erase(Key) override { return false; }
  size_t RangeScan(Key, Key, std::vector<KeyValue>*) const override {
    return 0;
  }
  size_t size() const override { return 0; }
  size_t SizeBytes() const override { return 0; }
  IndexStats Stats() const override { return {}; }
  std::string_view Name() const override { return "FailingShard"; }
};

TEST(ShardedIndexTest, ShardFailureReachesTheCaller) {
  // Every shard thread is joined; then BulkLoad rethrows the shard's
  // exception and Recover reports it as false.
  auto healthy = std::make_unique<FailingShard>();
  auto failing = std::make_unique<FailingShard>();
  FailingShard* failing_ptr = failing.get();
  std::vector<std::unique_ptr<KvIndex>> shards;
  shards.push_back(std::move(healthy));
  shards.push_back(std::move(failing));
  const std::string meta = ::testing::TempDir() + "/shard_failure.meta";
  ShardedIndex index(std::move(shards), meta);
  const std::vector<KeyValue> data = FaceData(1'000);
  index.BulkLoad(data);
  EXPECT_TRUE(index.Recover());
  failing_ptr->fail = true;
  EXPECT_THROW(index.BulkLoad(data), std::runtime_error);
  EXPECT_FALSE(index.Recover());
  // The unfinished load removed the first lifetime's routing table
  // before any shard build, so even healthy shards do not recover over
  // it.
  failing_ptr->fail = false;
  EXPECT_FALSE(index.Recover());
  EXPECT_FALSE(std::filesystem::exists(meta));
  std::filesystem::remove(meta);
}

TEST(ShardedIndexTest, RoutingTableFailureReachesTheCaller) {
  // A directory holds shards.meta's temp name: BulkLoad must throw
  // rather than acknowledge writes on a stack that cannot recover.
  const std::string dir = ::testing::TempDir() + "/sharded_meta_failure";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/shards.meta.tmp/keep");
  const std::string spec = "Sharded2:Durable(" + dir + ",fsync=always):B+Tree";
  std::unique_ptr<KvIndex> index = MakeIndex(spec);
  ASSERT_NE(index, nullptr);
  try {
    index->BulkLoad(FaceData(1'000));
    ADD_FAILURE() << "BulkLoad did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shards.meta"), std::string::npos)
        << e.what();
  }
  index.reset();
  EXPECT_FALSE(MakeIndex(spec)->Recover());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace chameleon
