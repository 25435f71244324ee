// TieredIndex behavior tests: delta-merge equivalence against an
// all-in-memory oracle, reopen-from-disk after a clean close, explicit
// Merge() semantics, spec-grammar options, and stack introspection.
// (The full KvIndex contract over Disk(...) stacks is covered by the
// conformance suite; these tests pin the tiered-specific lifecycle.)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/index_factory.h"
#include "src/data/dataset.h"
#include "src/storage/durable_index.h"
#include "src/tiered/tiered_index.h"
#include "src/util/random.h"

namespace chameleon {
namespace {

class TieredIndexTest : public ::testing::Test {
 protected:
  std::string dir_;

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/tiered_idx_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<KvIndex> MakeTiered(const std::string& opts = "") {
    std::string error;
    std::unique_ptr<KvIndex> index =
        MakeIndex("Disk(" + dir_ + opts + "):Chameleon", &error);
    EXPECT_NE(index, nullptr) << error;
    return index;
  }

  static std::vector<KeyValue> Load(size_t n, uint64_t seed = 7) {
    return ToKeyValues(GenerateDataset(DatasetKind::kLogn, n, seed));
  }

  /// Page reads recorded in the heatmap so far, over all pages.
  static uint64_t PageReads(const KvIndex& index) {
    uint64_t total = 0;
    for (const obs::UnitHeat& u : index.HeatmapSnapshot()) total += u.reads;
    return total;
  }
};

TEST_F(TieredIndexTest, DeltaMergeMatchesInMemoryOracle) {
  // Starved pool + aggressive merges: every few hundred absorbed writes
  // rewrite the page run. The index must stay bit-equal to a std::map
  // oracle through many merge generations.
  std::unique_ptr<KvIndex> index = MakeTiered(",frames=8,merge=500");
  const std::vector<KeyValue> data = Load(10'000);
  index->BulkLoad(data);
  std::map<Key, Value> oracle;
  for (const KeyValue& kv : data) oracle[kv.key] = kv.value;

  auto* tiered = dynamic_cast<TieredIndex*>(index.get());
  ASSERT_NE(tiered, nullptr);

  Rng rng(17);
  for (int op = 0; op < 6'000; ++op) {
    const Key base = data[rng.NextBounded(data.size())].key;
    const double dice = rng.NextDouble();
    if (dice < 0.4) {
      const Key k = base + rng.NextBounded(8);
      Value v = 0;
      const bool got = index->Lookup(k, &v);
      const auto it = oracle.find(k);
      ASSERT_EQ(got, it != oracle.end()) << k;
      if (got) {
        ASSERT_EQ(v, it->second);
      }
    } else if (dice < 0.75) {
      const Key k = base + rng.NextBounded(8);
      const bool inserted = index->Insert(k, k ^ 0xF00D);
      ASSERT_EQ(inserted, !oracle.contains(k)) << k;
      if (inserted) oracle[k] = k ^ 0xF00D;
    } else {
      const Key k = base + rng.NextBounded(8);
      ASSERT_EQ(index->Erase(k), oracle.erase(k) > 0) << k;
    }
    ASSERT_EQ(index->size(), oracle.size());
  }
  // The 500-op threshold must have fired several times by now.
  EXPECT_GE(tiered->merges(), 3u);

  // Full sweep: every oracle key present with the right value, and a
  // full-range scan returns exactly the oracle contents in order.
  for (const auto& [k, v] : oracle) {
    Value got = 0;
    ASSERT_TRUE(index->Lookup(k, &got)) << k;
    ASSERT_EQ(got, v);
  }
  std::vector<KeyValue> scanned;
  index->RangeScan(oracle.begin()->first, oracle.rbegin()->first, &scanned);
  ASSERT_EQ(scanned.size(), oracle.size());
  auto it = oracle.begin();
  for (const KeyValue& kv : scanned) {
    ASSERT_EQ(kv.key, it->first);
    ASSERT_EQ(kv.value, it->second);
    ++it;
  }
}

TEST_F(TieredIndexTest, EvictionsFireWithoutCorrectnessLoss) {
  // 10k keys = ~40 pages through 4 frames: the pool must evict
  // constantly while every probe still answers correctly.
  std::unique_ptr<KvIndex> index = MakeTiered(",frames=4");
  const std::vector<KeyValue> data = Load(10'000);
  index->BulkLoad(data);
  auto* tiered = dynamic_cast<TieredIndex*>(index.get());
  ASSERT_NE(tiered, nullptr);
  Rng rng(3);
  for (int i = 0; i < 5'000; ++i) {
    const KeyValue& kv = data[rng.NextBounded(data.size())];
    Value v = 0;
    ASSERT_TRUE(index->Lookup(kv.key, &v));
    ASSERT_EQ(v, kv.value);
  }
  const tiered::BufferPoolStats s = tiered->pool()->stats();
  EXPECT_GT(s.evictions, 100u);
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(tiered->disk_pages(), 4u);
}

TEST_F(TieredIndexTest, ReopenAfterCleanClose) {
  const std::vector<KeyValue> data = Load(5'000);
  std::map<Key, Value> oracle;
  for (const KeyValue& kv : data) oracle[kv.key] = kv.value;
  {
    std::unique_ptr<KvIndex> index = MakeTiered();
    index->BulkLoad(data);
    // Leave unmerged writes behind: the destructor must fold them in.
    Rng rng(9);
    for (int i = 0; i < 800; ++i) {
      const Key k = data[rng.NextBounded(data.size())].key;
      if (i % 3 == 0) {
        if (index->Erase(k)) oracle.erase(k);
      } else {
        const Key fresh = k + 1 + rng.NextBounded(4);
        if (index->Insert(fresh, fresh * 11)) oracle[fresh] = fresh * 11;
      }
    }
    ASSERT_EQ(index->size(), oracle.size());
  }  // clean close: merge + fsync

  std::unique_ptr<KvIndex> reopened = MakeTiered();
  auto* tiered = dynamic_cast<TieredIndex*>(reopened.get());
  ASSERT_NE(tiered, nullptr);
  ASSERT_TRUE(reopened->Recover());
  ASSERT_EQ(reopened->size(), oracle.size());
  EXPECT_EQ(tiered->delta_entries(), 0u);
  EXPECT_EQ(tiered->tombstone_count(), 0u);
  for (const auto& [k, v] : oracle) {
    Value got = 0;
    ASSERT_TRUE(reopened->Lookup(k, &got)) << k;
    ASSERT_EQ(got, v);
  }
  // And the recovered index accepts further writes.
  ASSERT_TRUE(reopened->Insert(1, 2));
  Value v = 0;
  ASSERT_TRUE(reopened->Lookup(1, &v));
  EXPECT_EQ(v, 2u);
}

TEST_F(TieredIndexTest, RecoverFailsOnMissingOrCorruptRun) {
  {
    std::unique_ptr<KvIndex> fresh = MakeTiered();
    EXPECT_FALSE(fresh->Recover());  // nothing on disk yet
  }
  {
    std::unique_ptr<KvIndex> index = MakeTiered();
    index->BulkLoad(Load(2'000));
  }
  // A BulkLoad interrupted before its commit has written part of a run
  // under the temp name (three data pages, header never synced). The
  // previous run must still be the one recovered, whole.
  {
    std::unique_ptr<tiered::PageFile> partial =
        tiered::PageFile::Create(dir_ + "/main.pages.tmp");
    ASSERT_NE(partial, nullptr);
    auto page = std::make_unique<tiered::Page>();
    tiered::PageFile::SetPageCount(page.get(), 1);
    for (uint64_t p = 0; p < 3; ++p) {
      tiered::PageFile::PageEntries(page.get())[0] = KeyValue{p + 1, p};
      ASSERT_TRUE(partial->WritePage(p, page.get()));
    }
  }
  auto recovers_the_first_load = [&] {
    std::unique_ptr<KvIndex> reopened = MakeTiered();
    ASSERT_TRUE(reopened->Recover());
    EXPECT_EQ(reopened->size(), 2'000u);
  };
  recovers_the_first_load();
  // A BulkLoad whose write fails (a directory holds the temp name)
  // throws to its caller and keeps the previous run too.
  std::filesystem::remove(dir_ + "/main.pages.tmp");
  std::filesystem::create_directory(dir_ + "/main.pages.tmp");
  EXPECT_THROW(MakeTiered()->BulkLoad(Load(500, 11)), std::runtime_error);
  recovers_the_first_load();
  // Corrupt a data page; recovery's full scan must reject the run.
  {
    std::FILE* raw = std::fopen((dir_ + "/main.pages").c_str(), "r+b");
    ASSERT_NE(raw, nullptr);
    std::fseek(raw, 4096 + 200, SEEK_SET);
    std::fputc(0x13, raw);
    std::fclose(raw);
  }
  std::unique_ptr<KvIndex> reopened = MakeTiered();
  EXPECT_FALSE(reopened->Recover());
}

TEST_F(TieredIndexTest, ReloadStartsANewLifetime) {
  // A reload drops the previous load's delta and tombstones: neither an
  // insert nor an erase made before it may surface after it.
  const std::vector<KeyValue> first = Load(2'000);
  const std::vector<KeyValue> second = Load(2'000, 11);
  const Key fresh = std::max(first.back().key, second.back().key) + 1;
  auto churn_and_reload = [&](KvIndex* index) {
    index->BulkLoad(first);
    ASSERT_TRUE(index->Insert(fresh, 1));
    ASSERT_TRUE(index->Erase(first[20].key));
    index->BulkLoad(second);
  };
  auto holds_exactly = [](const KvIndex& index,
                          const std::vector<KeyValue>& expected) {
    EXPECT_EQ(index.size(), expected.size());
    std::vector<KeyValue> all;
    EXPECT_EQ(index.RangeScan(kMinKey, kMaxKey, &all), expected.size());
    EXPECT_TRUE(all == expected);
  };

  {
    std::unique_ptr<KvIndex> index = MakeTiered();
    churn_and_reload(index.get());
    holds_exactly(*index, second);
    EXPECT_FALSE(index->Lookup(fresh, nullptr));
  }

  // Under a Durable layer the reload's initial snapshot must hold the
  // second load alone, and a crash after one acknowledged insert must
  // recover exactly that.
  const std::string spec = "Durable(" + dir_ + "/wal,fsync=always):Disk(" +
                           dir_ + "/pages):Chameleon";
  std::vector<KeyValue> expected = second;
  const KeyValue acked{fresh + 1, 7};
  expected.push_back(acked);
  {
    std::string error;
    std::unique_ptr<KvIndex> index = MakeIndex(spec, &error);
    ASSERT_NE(index, nullptr) << error;
    churn_and_reload(index.get());
    ASSERT_TRUE(index->Insert(acked.key, acked.value));
    ASSERT_TRUE(SimulateCrashStack(index.get()));
  }
  std::unique_ptr<KvIndex> recovered = MakeIndex(spec);
  ASSERT_NE(recovered, nullptr);
  ASSERT_TRUE(recovered->Recover());
  holds_exactly(*recovered, expected);
}

TEST_F(TieredIndexTest, ExplicitMergeDrainsDeltaAndTombstones) {
  std::unique_ptr<KvIndex> index = MakeTiered();  // default threshold: high
  const std::vector<KeyValue> data = Load(4'000);
  index->BulkLoad(data);
  auto* tiered = dynamic_cast<TieredIndex*>(index.get());
  ASSERT_NE(tiered, nullptr);

  ASSERT_TRUE(index->Erase(data[0].key));
  ASSERT_TRUE(index->Erase(data[10].key));
  ASSERT_TRUE(index->Insert(data[0].key, 999));  // shadow a tombstone
  ASSERT_TRUE(index->Insert(data[1].key + 1, 5));
  EXPECT_EQ(tiered->delta_entries(), 2u);
  EXPECT_EQ(tiered->tombstone_count(), 2u);
  const size_t size_before = index->size();

  ASSERT_TRUE(tiered->Merge());
  EXPECT_EQ(tiered->delta_entries(), 0u);
  EXPECT_EQ(tiered->tombstone_count(), 0u);
  EXPECT_EQ(tiered->merges(), 1u);
  EXPECT_EQ(index->size(), size_before);
  EXPECT_EQ(tiered->disk_entries(), size_before);

  Value v = 0;
  ASSERT_TRUE(index->Lookup(data[0].key, &v));
  EXPECT_EQ(v, 999u);  // shadow won
  EXPECT_FALSE(index->Lookup(data[10].key, nullptr));
  ASSERT_TRUE(index->Lookup(data[1].key + 1, &v));
  EXPECT_EQ(v, 5u);
}

TEST_F(TieredIndexTest, InsertWithoutBulkLoadMergesIntoEmptyRun) {
  std::unique_ptr<KvIndex> index = MakeTiered(",merge=64");
  auto* tiered = dynamic_cast<TieredIndex*>(index.get());
  ASSERT_NE(tiered, nullptr);
  for (Key k = 1; k <= 300; ++k) {
    ASSERT_TRUE(index->Insert(k, k * 2));
  }
  EXPECT_GE(tiered->merges(), 1u);
  EXPECT_EQ(index->size(), 300u);
  for (Key k = 1; k <= 300; ++k) {
    Value v = 0;
    ASSERT_TRUE(index->Lookup(k, &v)) << k;
    ASSERT_EQ(v, k * 2);
  }
}

TEST_F(TieredIndexTest, HeatmapTracksDiskPages) {
  std::unique_ptr<KvIndex> index = MakeTiered();
  const std::vector<KeyValue> data = Load(4'000);
  index->BulkLoad(data);
  const obs::Heatmap map = index->HeatmapSnapshot();
  auto* tiered = dynamic_cast<TieredIndex*>(index.get());
  ASSERT_EQ(map.size(), tiered->disk_pages());
  for (size_t i = 0; i + 1 < map.size(); ++i) {
    EXPECT_LT(map[i].lo, map[i].hi);
    EXPECT_EQ(map[i].hi, map[i + 1].lo);
  }
#ifndef CHAMELEON_NO_STATS
  // Hammer one key range, then expect its page to be the hottest.
  for (int i = 0; i < 2'000; ++i) {
    index->Lookup(data[100].key, nullptr);
  }
  const obs::Heatmap after = index->HeatmapSnapshot();
  uint64_t total = 0;
  for (const obs::UnitHeat& u : after) total += u.reads;
  EXPECT_GT(total, 0u);
#endif
}

TEST_F(TieredIndexTest, PageHeatIsSampledWhateverTheThreadDidBefore) {
#ifndef CHAMELEON_NO_STATS
  // Every Disk lookup records a heat hit in its Chameleon delta before
  // the page's. Page heat must not depend on how many hits the thread
  // recorded earlier: each thread's 800 page reads add exactly 800.
  std::unique_ptr<KvIndex> index = MakeTiered();
  std::unique_ptr<KvIndex> other = MakeIndex("Chameleon");
  const std::vector<KeyValue> data = Load(4'000);
  index->BulkLoad(data);
  other->BulkLoad(data);
  for (int earlier_hits : {0, 1}) {
    const uint64_t before = PageReads(*index);
    // A fresh thread starts with fresh sampling state.
    std::thread([&] {
      for (int i = 0; i < earlier_hits; ++i) {
        other->Lookup(data[0].key, nullptr);
      }
      for (int i = 0; i < 800; ++i) index->Lookup(data[100].key, nullptr);
    }).join();
    EXPECT_EQ(PageReads(*index) - before, 800u) << earlier_hits;
  }
#endif
}

TEST_F(TieredIndexTest, ConcurrentReadersRaceALiveHeatmapPoller) {
  // R Disk readers bump page heat without a lock while a sampler-style
  // poller snapshots it (a TSan target): every lookup hits and no page
  // read goes unrecorded.
  std::unique_ptr<KvIndex> index = MakeTiered(",frames=8");
  const std::vector<KeyValue> data = Load(8'000);
  index->BulkLoad(data);
  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done) PageReads(*index);
  });
  std::atomic<int> misses{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 4'000; ++i) {  // a multiple of the heat weight
        const KeyValue& kv = data[rng.NextBounded(data.size())];
        Value v = 0;
        misses += !index->Lookup(kv.key, &v) || v != kv.value;
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  done = true;
  poller.join();
  EXPECT_EQ(misses.load(), 0);
#ifndef CHAMELEON_NO_STATS
  EXPECT_EQ(PageReads(*index), 4u * 4'000u);
#endif
}

TEST_F(TieredIndexTest, FewerFramesThanReadersMatchesTheOracle) {
  // Four readers through two frames: a lookup or a scan page often
  // finds both frames pinned by other readers. It must wait for one,
  // never report a present key absent or end a scan early, so every
  // answer is compared exactly with a std::map oracle.
  std::unique_ptr<KvIndex> index = MakeTiered(",frames=2");
  const std::vector<KeyValue> data = Load(8'000);
  index->BulkLoad(data);
  std::map<Key, Value> oracle;
  for (const KeyValue& kv : data) oracle[kv.key] = kv.value;
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(200 + t);
      std::vector<KeyValue> scanned;
      for (int i = 0; i < 2'000; ++i) {
        const size_t at = rng.NextBounded(data.size());
        // Every other probe is one past a loaded key: mostly absent.
        const Key k = data[at].key + (i & 1);
        const auto it = oracle.find(k);
        Value v = 0;
        const bool got = index->Lookup(k, &v);
        wrong += got != (it != oracle.end()) || (got && v != it->second);
        if (i % 16 != 0) continue;
        // A scan over about three pages.
        const Key hi = data[std::min(at + 600, data.size() - 1)].key;
        scanned.clear();
        index->RangeScan(k, hi, &scanned);
        auto expect = oracle.lower_bound(k);
        bool same = true;
        for (const KeyValue& kv : scanned) {
          same = same && expect != oracle.end() && kv.key == expect->first &&
                 kv.value == expect->second;
          if (expect != oracle.end()) ++expect;
        }
        wrong += !same || expect != oracle.upper_bound(hi);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(TieredIndexTest, CorruptPageStopsTheProcessInsteadOfMissing) {
  // A data page that fails its CRC under a live index: answering
  // "absent" for its keys would be a wrong answer, so lookups and
  // scans that reach it stop the process, naming the page.
  std::unique_ptr<KvIndex> index = MakeTiered(",frames=4");
  const std::vector<KeyValue> data = Load(5'000);
  index->BulkLoad(data);
  {
    std::FILE* raw = std::fopen((dir_ + "/main.pages").c_str(), "r+b");
    ASSERT_NE(raw, nullptr);
    std::fseek(raw, 2 * 4096 + 200, SEEK_SET);  // a data byte of page 1
    const int byte = std::fgetc(raw);
    std::fseek(raw, 2 * 4096 + 200, SEEK_SET);
    std::fputc(byte ^ 0xFF, raw);
    std::fclose(raw);
  }
  const Key on_page_1 = data[tiered::kEntriesPerPage + 10].key;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(index->Lookup(on_page_1, nullptr),
               "page 1 of .*main\\.pages is corrupt");
  std::vector<KeyValue> out;
  EXPECT_DEATH(index->RangeScan(data.front().key, data.back().key, &out),
               "page 1 of .*main\\.pages is corrupt");
}

TEST_F(TieredIndexTest, SpecOptionsAndErrors) {
  std::string error;
  // Unknown option, bad values, missing dir: position-accurate errors.
  EXPECT_EQ(MakeIndex("Disk:Chameleon", &error), nullptr);
  EXPECT_NE(error.find("directory"), std::string::npos) << error;
  EXPECT_EQ(MakeIndex("Disk(" + dir_ + ",bogus=1):Chameleon", &error),
            nullptr);
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
  // Pages are a fixed 4 KiB and there is no direct-I/O mode: the old
  // page-size and I/O-mode knobs are unknown options, not ignored ones.
  for (const auto& [key, value] :
       {std::pair<std::string, std::string>{"pages", "4K"}, {"direct", "on"}}) {
    EXPECT_EQ(MakeIndex("Disk(" + dir_ + "," + key + "=" + value +
                            "):Chameleon",
                        &error),
              nullptr)
        << key;
    EXPECT_NE(error.find("unknown Disk option '" + key + "'"),
              std::string::npos)
        << error;
  }
  EXPECT_EQ(MakeIndex("Disk(" + dir_ + ",frames=0):Chameleon", &error),
            nullptr);
  EXPECT_EQ(MakeIndex("Disk4(" + dir_ + "):Chameleon", &error), nullptr);

  // The "4K" size shorthand parses; the stack reports its name.
  std::unique_ptr<KvIndex> index =
      MakeIndex("Disk(" + dir_ + ",frames=32,merge=4K):Chameleon", &error);
  ASSERT_NE(index, nullptr) << error;
  EXPECT_EQ(index->Name(), "Disk:Chameleon");
  auto* tiered = dynamic_cast<TieredIndex*>(index.get());
  ASSERT_NE(tiered, nullptr);
  EXPECT_EQ(tiered->frame_budget(), 32u);

  // Suffixes are decimal, as in workload specs: 1M is 10^6 frames. The
  // pool is allocated at BulkLoad, so this builds no 4 GB arena.
  index = MakeIndex("Disk(" + dir_ + ",frames=1M):Chameleon", &error);
  ASSERT_NE(index, nullptr) << error;
  EXPECT_EQ(dynamic_cast<TieredIndex&>(*index).frame_budget(), 1'000'000u);
}

TEST_F(TieredIndexTest, CollectTieredStatsWalksAdapterStacks) {
  std::string error;
  std::unique_ptr<KvIndex> index =
      MakeIndex("Sharded2:Disk(" + dir_ + ",frames=8):Chameleon", &error);
  ASSERT_NE(index, nullptr) << error;
  const std::vector<KeyValue> data = Load(6'000);
  index->BulkLoad(data);
  // Every loaded key routes to exactly one shard's page: 200 pins.
  for (size_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(index->Lookup(data[i * 29].key, nullptr)) << i;
  }
  TieredStatsBlock block;
  ASSERT_TRUE(CollectTieredStats(index.get(), &block));
  EXPECT_EQ(block.layers, 2u);       // one tiered layer per shard
  EXPECT_EQ(block.frames, 16u);      // 8 frames each
  EXPECT_EQ(block.page_size, 4096u);
  EXPECT_EQ(block.disk_entries, 6'000u);
  EXPECT_GT(block.pages, 0u);
  EXPECT_EQ(block.pool.hits + block.pool.misses, 200u);

  // A stack without a tiered layer reports absence.
  std::unique_ptr<KvIndex> volatile_index = MakeIndex("Chameleon");
  TieredStatsBlock none;
  EXPECT_FALSE(CollectTieredStats(volatile_index.get(), &none));
  EXPECT_EQ(none.layers, 0u);
}

TEST_F(TieredIndexTest, BulkLoadAndMergeWriteIdenticalRuns) {
  // BulkLoad and Merge share one run writer: loading every key at once
  // and loading half, inserting the rest and merging must leave the
  // same main.pages, byte for byte.
  const std::vector<KeyValue> data = Load(5'000);
  std::vector<KeyValue> evens, odds;
  for (size_t i = 0; i < data.size(); ++i) {
    (i % 2 == 0 ? evens : odds).push_back(data[i]);
  }
  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  std::string error;
  std::unique_ptr<KvIndex> whole =
      MakeIndex("Disk(" + dir_ + "/whole):Chameleon", &error);
  ASSERT_NE(whole, nullptr) << error;
  whole->BulkLoad(data);
  std::unique_ptr<KvIndex> merged =
      MakeIndex("Disk(" + dir_ + "/merged):Chameleon", &error);
  ASSERT_NE(merged, nullptr) << error;
  merged->BulkLoad(evens);
  for (const KeyValue& kv : odds) ASSERT_TRUE(merged->Insert(kv.key, kv.value));
  ASSERT_TRUE(dynamic_cast<TieredIndex*>(merged.get())->Merge());

  const std::string a = read_file(dir_ + "/whole/main.pages");
  const std::string b = read_file(dir_ + "/merged/main.pages");
  // A header page plus ceil(5000 / 255) = 20 data pages.
  EXPECT_EQ(a.size(), 21 * tiered::kPageSize);
  EXPECT_TRUE(a == b) << "runs differ (" << a.size() << " vs " << b.size()
                      << " bytes)";
}

TEST_F(TieredIndexTest, ShardedDiskUsesPerShardDirectories) {
  std::string error;
  std::unique_ptr<KvIndex> index =
      MakeIndex("Sharded2:Disk(" + dir_ + "):Chameleon", &error);
  ASSERT_NE(index, nullptr) << error;
  index->BulkLoad(Load(4'000));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/shard-0/main.pages"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/shard-1/main.pages"));
}

TEST_F(TieredIndexTest, DiskSpecWrapsAnyInnerAndRejectsBadOnes) {
  std::unique_ptr<KvIndex> index = MakeIndex("Disk(" + dir_ + "):B+Tree");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->Name(), "Disk:B+Tree");
  EXPECT_EQ(MakeIndex("Disk(" + dir_ + "):NoSuchIndex"), nullptr);
  EXPECT_EQ(MakeIndex("Disk:B+Tree"), nullptr);
}

}  // namespace
}  // namespace chameleon
