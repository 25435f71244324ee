// Cross-implementation conformance suite: every index (Chameleon, its
// ablations, and all eight baselines) is exercised against a std::map
// reference over every dataset family. These are the integration tests
// that pin down the KvIndex contract.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/index_factory.h"
#include "src/api/kv_index.h"
#include "src/data/dataset.h"
#include "src/storage/durable_index.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace chameleon {
namespace {

using Param = std::tuple<std::string, DatasetKind>;

class ConformanceTest : public ::testing::TestWithParam<Param> {
 protected:
  std::unique_ptr<KvIndex> index_;
  std::vector<KeyValue> data_;
  std::vector<std::string> scratch_dirs_;  // durability dirs, see below

  /// Builds the index the param names. Directory-rooted adapters are
  /// spelled as bare "Durable:" / "Disk:" tokens (anywhere in the
  /// stack, e.g. "Sharded2:Durable:Chameleon") so param names stay
  /// path-free; they expand to "Durable(<scratch>,fsync=everyN):" /
  /// "Disk(<scratch>,frames=16,merge=2000):" with a per-test scratch
  /// directory here (`tag` keeps multiple instances in one test apart).
  /// Durable uses group commit instead of fsync-per-op: this suite
  /// checks KvIndex behavior through the WAL write path, not crash
  /// durability (the fsync contract is WalTest / DurableIndexTest's).
  /// Disk runs with 16 frames (64 KB of pool vs a ~79-page load, so
  /// CLOCK evictions fire constantly) and a 2000-op merge threshold
  /// (the CRUD tests cross it several times), making every test here
  /// double as an eviction/merge correctness check.
  std::unique_ptr<KvIndex> MakeParamIndex(const std::string& name,
                                          const char* tag = "") {
    std::string spec = name;
    bool expanded = false;
    constexpr std::string_view kDurable = "Durable:";
    size_t at = spec.find(kDurable);
    if (at != std::string::npos) {
      const std::string dir = ScratchDir(std::string(tag) + "_dur");
      scratch_dirs_.push_back(dir);
      spec.replace(at, kDurable.size(), "Durable(" + dir + ",fsync=everyN):");
      expanded = true;
    }
    constexpr std::string_view kDisk = "Disk:";
    at = spec.find(kDisk);
    if (at != std::string::npos) {
      const std::string dir = ScratchDir(std::string(tag) + "_disk");
      scratch_dirs_.push_back(dir);
      spec.replace(at, kDisk.size(), "Disk(" + dir + ",frames=16,merge=2000):");
      expanded = true;
    }
    if (!expanded) return MakeIndex(name);
    std::string error;
    std::unique_ptr<KvIndex> index = MakeIndex(spec, &error);
    EXPECT_NE(index, nullptr) << spec << ": " << error;
    return index;
  }

  /// A fresh per-test scratch directory (removed in TearDown).
  std::string ScratchDir(const std::string& tag) {
    std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : test) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    const std::string dir = ::testing::TempDir() + "/conf_" + test + tag;
    std::filesystem::remove_all(dir);
    return dir;
  }

  void SetUp() override {
    const auto& [name, kind] = GetParam();
    index_ = MakeParamIndex(name);
    ASSERT_NE(index_, nullptr) << name;
    const std::vector<Key> keys = GenerateDataset(kind, 20'000, /*seed=*/7);
    data_ = ToKeyValues(keys);
    index_->BulkLoad(data_);
  }

  void TearDown() override {
    index_.reset();
    for (const std::string& dir : scratch_dirs_) {
      std::filesystem::remove_all(dir);
    }
  }
};

TEST_P(ConformanceTest, BulkLoadThenLookupEveryKey) {
  EXPECT_EQ(index_->size(), data_.size());
  for (size_t i = 0; i < data_.size(); i += 7) {
    Value v = 0;
    ASSERT_TRUE(index_->Lookup(data_[i].key, &v)) << "key index " << i;
    EXPECT_EQ(v, data_[i].value);
  }
}

TEST_P(ConformanceTest, NegativeLookups) {
  Rng rng(99);
  size_t checked = 0;
  for (int i = 0; i < 2'000; ++i) {
    const Key probe = rng.Next() >> 4;
    const bool present = std::binary_search(
        data_.begin(), data_.end(), KeyValue{probe, 0},
        [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });
    if (present) continue;
    ++checked;
    EXPECT_FALSE(index_->Lookup(probe, nullptr)) << "phantom key " << probe;
  }
  EXPECT_GT(checked, 0u);
}

TEST_P(ConformanceTest, InsertLookupEraseCycle) {
  Rng rng(5);
  // Fresh keys derived near existing ones.
  std::vector<Key> fresh;
  for (int i = 0; i < 500; ++i) {
    Key k = data_[rng.NextBounded(data_.size())].key + 1;
    while (std::binary_search(
        data_.begin(), data_.end(), KeyValue{k, 0},
        [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; })) {
      ++k;
    }
    fresh.push_back(k);
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());

  for (Key k : fresh) {
    ASSERT_TRUE(index_->Insert(k, k * 3)) << k;
  }
  for (Key k : fresh) {
    Value v = 0;
    ASSERT_TRUE(index_->Lookup(k, &v)) << k;
    EXPECT_EQ(v, k * 3);
  }
  // Duplicate inserts must be rejected.
  EXPECT_FALSE(index_->Insert(fresh.front(), 1));
  EXPECT_FALSE(index_->Insert(data_.front().key, 1));

  for (Key k : fresh) {
    ASSERT_TRUE(index_->Erase(k)) << k;
    EXPECT_FALSE(index_->Lookup(k, nullptr)) << k;
  }
  // Erasing twice fails.
  EXPECT_FALSE(index_->Erase(fresh.front()));
  EXPECT_EQ(index_->size(), data_.size());
}

TEST_P(ConformanceTest, RandomizedCrudMatchesReference) {
  std::map<Key, Value> reference(
      [&] {
        std::map<Key, Value> m;
        for (const KeyValue& kv : data_) m[kv.key] = kv.value;
        return m;
      }());
  Rng rng(11);
  for (int op = 0; op < 4'000; ++op) {
    const double dice = rng.NextDouble();
    if (dice < 0.5) {
      // Lookup of a (probably) existing key.
      const Key k = data_[rng.NextBounded(data_.size())].key;
      Value v = 0;
      const bool got = index_->Lookup(k, &v);
      const auto it = reference.find(k);
      ASSERT_EQ(got, it != reference.end()) << k;
      if (got) {
        EXPECT_EQ(v, it->second);
      }
    } else if (dice < 0.8) {
      // Insert a random key (may or may not exist).
      const Key k = data_[rng.NextBounded(data_.size())].key +
                    rng.NextBounded(64);
      const Value v = k ^ 0xABCD;
      const bool inserted = index_->Insert(k, v);
      const bool expected = !reference.contains(k);
      ASSERT_EQ(inserted, expected) << k;
      if (inserted) reference[k] = v;
    } else {
      // Erase a random key.
      const Key k = data_[rng.NextBounded(data_.size())].key +
                    rng.NextBounded(64);
      const bool erased = index_->Erase(k);
      ASSERT_EQ(erased, reference.erase(k) > 0) << k;
    }
    ASSERT_EQ(index_->size(), reference.size());
  }
}

TEST_P(ConformanceTest, RangeScanMatchesReference) {
  Rng rng(21);
  for (int i = 0; i < 50; ++i) {
    const size_t a = rng.NextBounded(data_.size());
    const size_t b = std::min(data_.size() - 1, a + rng.NextBounded(500));
    const Key lo = data_[a].key;
    const Key hi = data_[b].key;
    std::vector<KeyValue> got;
    const size_t n = index_->RangeScan(lo, hi, &got);
    ASSERT_EQ(n, got.size());
    // Reference: the slice of data_ in [lo, hi].
    std::vector<KeyValue> expected;
    for (size_t j = a; j <= b; ++j) expected.push_back(data_[j]);
    ASSERT_EQ(got.size(), expected.size()) << "range [" << lo << "," << hi
                                           << "]";
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    for (size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j].key, expected[j].key);
      ASSERT_EQ(got[j].value, expected[j].value);
    }
  }
}

TEST_P(ConformanceTest, RangeScanReflectsInsertsAndErases) {
  // Scans must observe CRUD immediately: erase a stride of loaded keys,
  // insert fresh ones between survivors, then compare windows against a
  // std::map replaying the same mutations.
  std::map<Key, Value> reference;
  for (const KeyValue& kv : data_) reference[kv.key] = kv.value;
  Rng rng(61);
  for (int i = 0; i < 600; ++i) {
    const Key victim = data_[rng.NextBounded(data_.size())].key;
    if (index_->Erase(victim)) {
      ASSERT_EQ(reference.erase(victim), 1u) << victim;
    } else {
      ASSERT_FALSE(reference.contains(victim)) << victim;
    }
    const Key k = data_[rng.NextBounded(data_.size())].key + 1 +
                  rng.NextBounded(16);
    const Value v = k * 7;
    if (index_->Insert(k, v)) {
      ASSERT_FALSE(reference.contains(k)) << k;
      reference[k] = v;
    } else {
      ASSERT_TRUE(reference.contains(k)) << k;
    }
  }
  ASSERT_EQ(index_->size(), reference.size());
  for (int i = 0; i < 30; ++i) {
    const Key lo = data_[rng.NextBounded(data_.size())].key;
    const Key hi = lo + 1 + rng.Next() % (data_.back().key - lo + 1);
    std::vector<KeyValue> got;
    const size_t n = index_->RangeScan(lo, hi, &got);
    ASSERT_EQ(n, got.size());
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    const auto begin = reference.lower_bound(lo);
    const auto end = reference.upper_bound(hi);
    ASSERT_EQ(got.size(), static_cast<size_t>(std::distance(begin, end)))
        << "range [" << lo << "," << hi << "]";
    size_t j = 0;
    for (auto it = begin; it != end; ++it, ++j) {
      ASSERT_EQ(got[j].key, it->first);
      ASSERT_EQ(got[j].value, it->second);
    }
  }
}

TEST_P(ConformanceTest, InsertEraseSweepDrainsAndRefills) {
  // Structured churn rather than random CRUD: erase every 3rd loaded
  // key in one sweep, reinsert all of them with new values in a second,
  // and verify the index converges to the expected population at each
  // stage. Catches stale tombstones and lost slots that random streams
  // rarely pin down, and (through full scans) a reinserted key that
  // shows up next to its erased copy, before or after a delta merge.
  std::map<Key, Value> expected;
  for (const KeyValue& kv : data_) expected[kv.key] = kv.value;
  auto expect_full_scan = [&](const char* stage) {
    std::vector<KeyValue> got;
    index_->RangeScan(0, kMaxKey - 1, &got);
    ASSERT_EQ(got.size(), index_->size()) << stage;
    ASSERT_EQ(got.size(), expected.size()) << stage;
    size_t j = 0;
    for (const auto& [key, value] : expected) {
      ASSERT_EQ(got[j].key, key) << stage << " at " << j;
      ASSERT_EQ(got[j].value, value) << stage << " at " << j;
      ++j;
    }
  };
  size_t erased = 0;
  for (size_t i = 0; i < data_.size(); i += 3) {
    ASSERT_TRUE(index_->Erase(data_[i].key)) << i;
    expected.erase(data_[i].key);
    ++erased;
  }
  ASSERT_EQ(index_->size(), data_.size() - erased);
  for (size_t i = 0; i < data_.size(); ++i) {
    Value v = 0;
    const bool found = index_->Lookup(data_[i].key, &v);
    ASSERT_EQ(found, i % 3 != 0) << i;
    if (found) {
      EXPECT_EQ(v, data_[i].value);
    }
  }
  for (size_t i = 0; i < data_.size(); i += 3) {
    ASSERT_TRUE(index_->Insert(data_[i].key, data_[i].value + 1)) << i;
    expected[data_[i].key] = data_[i].value + 1;
    // RS and DIC still hold the first 1000 reinserts in their deltas.
    if (i == 3 * 1000) {
      ASSERT_NO_FATAL_FAILURE(expect_full_scan("mid-reinsert"));
    }
  }
  ASSERT_EQ(index_->size(), data_.size());
  for (size_t i = 0; i < data_.size(); i += 3) {
    Value v = 0;
    ASSERT_TRUE(index_->Lookup(data_[i].key, &v)) << i;
    EXPECT_EQ(v, data_[i].value + 1) << i;
  }
  ASSERT_NO_FATAL_FAILURE(expect_full_scan("after reinsert"));
  // More fresh inserts than any delta buffer holds (RS merges past
  // max(1024, n/16) buffered inserts, DIC past max(4096, n/8)).
  for (Key k = data_.back().key + 1; expected.size() < data_.size() + 4'100;
       ++k) {
    ASSERT_TRUE(index_->Insert(k, k * 3)) << k;
    expected[k] = k * 3;
  }
  ASSERT_NO_FATAL_FAILURE(expect_full_scan("after merge"));
}

TEST_P(ConformanceTest, LookupBatchMatchesPerKeyLookup) {
  // One batch mixing hits, misses, and duplicates; results must be
  // bit-identical to per-key Lookup, including values[i] left untouched
  // on a miss.
  Rng rng(31);
  std::vector<Key> keys;
  for (int i = 0; i < 300; ++i) {
    keys.push_back(data_[rng.NextBounded(data_.size())].key);  // hit
    keys.push_back(data_[rng.NextBounded(data_.size())].key + 1);  // mostly miss
  }
  keys.push_back(keys.front());  // duplicates within the batch
  keys.push_back(keys.front());

  constexpr Value kSentinel = 0xDEADBEEFCAFEF00Dull;
  std::vector<Value> batch_values(keys.size(), kSentinel);
  std::unique_ptr<bool[]> batch_found(new bool[keys.size()]);
  index_->LookupBatch(keys, batch_values.data(), batch_found.get());

  for (size_t i = 0; i < keys.size(); ++i) {
    Value v = kSentinel;
    const bool found = index_->Lookup(keys[i], &v);
    ASSERT_EQ(batch_found[i], found) << "key " << keys[i];
    ASSERT_EQ(batch_values[i], v) << "key " << keys[i];
  }
}

TEST_P(ConformanceTest, LookupBatchLargerThanIndex) {
  // A batch that dwarfs the population: build a tiny 8-key index and
  // probe it with a hundred keys in one call.
  const auto& [name, kind] = GetParam();
  std::unique_ptr<KvIndex> tiny = MakeParamIndex(name, "_tiny");
  ASSERT_NE(tiny, nullptr);
  std::vector<KeyValue> small;
  for (Key k = 10; k <= 80; k += 10) small.push_back({k, k * 2});
  tiny->BulkLoad(small);

  std::vector<Key> keys;
  for (Key k = 1; k <= 100; ++k) keys.push_back(k);
  std::vector<Value> values(keys.size(), 0);
  std::unique_ptr<bool[]> found(new bool[keys.size()]);
  tiny->LookupBatch(keys, values.data(), found.get());

  for (size_t i = 0; i < keys.size(); ++i) {
    const bool expect_hit = keys[i] % 10 == 0 && keys[i] >= 10 && keys[i] <= 80;
    ASSERT_EQ(found[i], expect_hit) << keys[i];
    if (expect_hit) {
      EXPECT_EQ(values[i], keys[i] * 2);
    }
  }
}

TEST_P(ConformanceTest, BulkLoadReplacesContents) {
  // BulkLoad is the one way an index starts a lifetime, and it may come
  // again: after writes, an empty reload and a reload with other keys,
  // the index holds exactly the last load.
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    index_->Insert(data_[rng.NextBounded(data_.size())].key + 1, 3);
    index_->Erase(data_[rng.NextBounded(data_.size())].key);
  }
  auto holds_exactly = [&](const std::vector<KeyValue>& expected) {
    EXPECT_EQ(index_->size(), expected.size());
    std::vector<KeyValue> all;
    index_->RangeScan(kMinKey, kMaxKey - 1, &all);
    EXPECT_TRUE(all == expected) << all.size() << " pairs scanned, "
                                 << expected.size() << " loaded";
    size_t stale = 0;
    for (const KeyValue& kv : data_) {
      stale += !std::binary_search(expected.begin(), expected.end(), kv) &&
               index_->Lookup(kv.key, nullptr);
    }
    EXPECT_EQ(stale, 0u) << "keys of the first load still found";
  };
  index_->BulkLoad({});
  holds_exactly({});
  const std::vector<KeyValue> other = ToKeyValues(
      GenerateDataset(std::get<1>(GetParam()), 3'000, /*seed=*/8));
  index_->BulkLoad(other);
  holds_exactly(other);
  Value v = 0;
  ASSERT_TRUE(index_->Lookup(other[1'500].key, &v));
  EXPECT_EQ(v, other[1'500].value);
}

TEST_P(ConformanceTest, StatsAndSizeAreSane) {
  const IndexStats stats = index_->Stats();
  EXPECT_GE(stats.max_height, 1);
  EXPECT_GE(stats.num_nodes, 1u);
  EXPECT_GE(stats.avg_height, 0.99);
  EXPECT_LE(stats.avg_height, static_cast<double>(stats.max_height) + 1e-9);
  EXPECT_GE(stats.max_error, stats.avg_error - 1e-9);
  // The index must account at least for the payloads it stores.
  EXPECT_GE(index_->SizeBytes(), data_.size() * sizeof(Value) / 2);
}

// Parallel construction must be deterministic: building the same data
// with a 1-thread and a 4-thread pool yields an identical structure
// (same stats, same footprint, and the same answers).
TEST(ParallelBuildDeterminismTest, ThreadCountDoesNotChangeStructure) {
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kLogn, 50'000, /*seed=*/13);
  const std::vector<KeyValue> data = ToKeyValues(keys);
  for (const std::string& name : {std::string("ChaB"), std::string("ChaDA"),
                                  std::string("Chameleon")}) {
    SetGlobalThreads(1);
    std::unique_ptr<KvIndex> serial = MakeIndex(name);
    serial->BulkLoad(data);
    SetGlobalThreads(4);
    std::unique_ptr<KvIndex> parallel = MakeIndex(name);
    parallel->BulkLoad(data);
    SetGlobalThreads(0);  // restore the default for other tests

    const IndexStats a = serial->Stats();
    const IndexStats b = parallel->Stats();
    EXPECT_EQ(a.max_height, b.max_height) << name;
    EXPECT_EQ(a.num_nodes, b.num_nodes) << name;
    EXPECT_DOUBLE_EQ(a.avg_height, b.avg_height) << name;
    EXPECT_DOUBLE_EQ(a.max_error, b.max_error) << name;
    EXPECT_DOUBLE_EQ(a.avg_error, b.avg_error) << name;
    EXPECT_EQ(serial->SizeBytes(), parallel->SizeBytes()) << name;
    EXPECT_EQ(serial->size(), parallel->size()) << name;
    for (size_t i = 0; i < data.size(); i += 97) {
      Value va = 0, vb = 0;
      ASSERT_TRUE(serial->Lookup(data[i].key, &va));
      ASSERT_TRUE(parallel->Lookup(data[i].key, &vb));
      ASSERT_EQ(va, vb);
    }
  }
}

std::vector<Param> AllParams() {
  std::vector<Param> params;
  for (const std::string& name : AllIndexNames()) {
    for (DatasetKind kind : kAllDatasets) {
      params.push_back({name, kind});
    }
  }
  // The engine layer rides through the same contract suite: a 4-way
  // sharded deployment must be indistinguishable from a single index
  // to every KvIndex consumer.
  for (const std::string& name : {std::string("Sharded4:Chameleon"),
                                  std::string("Sharded4:B+Tree")}) {
    for (DatasetKind kind : kAllDatasets) {
      params.push_back({name, kind});
    }
  }
  // So does the storage layer: logging every mutation to a WAL must not
  // change any observable KvIndex behavior (native snapshot path via
  // Chameleon, generic sorted-pairs path via B+Tree).
  for (const std::string& name : {std::string("Durable:Chameleon"),
                                  std::string("Durable:B+Tree")}) {
    for (DatasetKind kind : kAllDatasets) {
      params.push_back({name, kind});
    }
  }
  // And the nested composition: a sharded deployment whose shards each
  // own a private WAL+snapshot stack (the per-shard durability layout)
  // must still be contract-indistinguishable from a single index.
  for (const std::string& name : {std::string("Sharded2:Durable:Chameleon"),
                                  std::string("Sharded2:Durable:B+Tree")}) {
    for (DatasetKind kind : kAllDatasets) {
      params.push_back({name, kind});
    }
  }
  // The tiered layer too: paging the leaves to disk behind a starved
  // buffer pool (16 frames, merges every 2000 absorbed writes — see
  // MakeParamIndex) must be invisible to every KvIndex consumer, alone
  // and under a sharded deployment.
  // Disk:RS nests one delta overlay inside another: RS's B+Tree delta
  // and tombstones are themselves the delta of the paged run.
  for (const std::string& name : {std::string("Disk:Chameleon"),
                                  std::string("Disk:B+Tree"),
                                  std::string("Disk:RS"),
                                  std::string("Sharded4:Disk:Chameleon")}) {
    for (DatasetKind kind : kAllDatasets) {
      params.push_back({name, kind});
    }
  }
  return params;
}

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  std::string name = std::get<0>(info.param);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + "_" + std::string(DatasetName(std::get<1>(info.param)));
}

INSTANTIATE_TEST_SUITE_P(AllIndexesAllDatasets, ConformanceTest,
                         ::testing::ValuesIn(AllParams()), ParamName);

}  // namespace
}  // namespace chameleon
