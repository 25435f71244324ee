// Unit tests for the tiered storage primitives: the page-aligned leaf
// file format (CRC + page_seq validation, fixed 4 KiB geometry) and the
// read-only S3-FIFO buffer pool (pin/unpin, eviction under a tiny frame
// budget, a hot set surviving a cold sweep, ghost hits and access counts,
// hit counts on a zipf trace, waiting for a frame only when all are
// pinned, aborting on a page that fails its read), and the in-page
// search (PageLowerBound) against std::lower_bound.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/tiered/buffer_pool.h"
#include "src/tiered/page_file.h"
#include "src/util/common.h"
#include "src/util/crc32c.h"
#include "src/util/random.h"

namespace chameleon::tiered {
namespace {

class TieredPoolTest : public ::testing::Test {
 protected:
  std::string dir_;

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/tiered_pool_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const char* name = "t.pages") {
    return dir_ + "/" + name;
  }

  /// Writes `pages` data pages; page p holds entries {p*1000+i, p}.
  std::unique_ptr<PageFile> MakeFile(uint64_t pages, uint32_t per_page = 4) {
    std::unique_ptr<PageFile> f = PageFile::Create(Path());
    EXPECT_NE(f, nullptr);
    auto buf = std::make_unique<Page>();
    uint64_t entries = 0;
    for (uint64_t p = 0; p < pages; ++p) {
      std::memset(buf.get(), 0, kPageSize);
      PageFile::SetPageCount(buf.get(), per_page);
      KeyValue* kv = PageFile::PageEntries(buf.get());
      for (uint32_t i = 0; i < per_page; ++i) {
        kv[i] = {p * 1000 + i, p};
      }
      EXPECT_TRUE(f->WritePage(p, buf.get()));
      entries += per_page;
    }
    EXPECT_TRUE(f->SyncHeader(entries));
    return f;
  }
};

TEST_F(TieredPoolTest, PageFileRoundTrip) {
  {
    std::unique_ptr<PageFile> f = MakeFile(5);
    EXPECT_EQ(f->num_pages(), 5u);
    EXPECT_EQ(f->header_entries(), 20u);
  }
  std::unique_ptr<PageFile> f = PageFile::Open(Path());
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->num_pages(), 5u);
  EXPECT_EQ(f->header_entries(), 20u);
  EXPECT_EQ(f->SizeBytes(), 6 * kPageSize);
  auto buf = std::make_unique<Page>();
  for (uint64_t p = 0; p < 5; ++p) {
    ASSERT_TRUE(f->ReadPage(p, buf.get()));
    EXPECT_EQ(PageFile::PageCount(buf.get()), 4u);
    const KeyValue* kv = PageFile::PageEntries(buf.get());
    EXPECT_EQ(kv[0].key, p * 1000);
    EXPECT_EQ(kv[3].value, p);
  }
  // Out-of-range pages are errors, not zeros.
  EXPECT_FALSE(f->ReadPage(5, buf.get()));
}

TEST_F(TieredPoolTest, CorruptPageFailsChecksum) {
  { MakeFile(3); }
  // Flip one payload byte in page 1.
  {
    std::FILE* raw = std::fopen(Path().c_str(), "r+b");
    ASSERT_NE(raw, nullptr);
    std::fseek(raw, 2 * 4096 + 100, SEEK_SET);
    std::fputc(0x5A, raw);
    std::fclose(raw);
  }
  std::unique_ptr<PageFile> f = PageFile::Open(Path());
  ASSERT_NE(f, nullptr);
  auto buf = std::make_unique<Page>();
  EXPECT_TRUE(f->ReadPage(0, buf.get()));
  EXPECT_FALSE(f->ReadPage(1, buf.get()));
  EXPECT_TRUE(f->ReadPage(2, buf.get()));
}

TEST_F(TieredPoolTest, CorruptCountWordFailsRead) {
  // The count word (offset 4) is outside the crc, so ReadPage checks it
  // against the entries: a count that drops real pairs or claims zero
  // tail slots is corruption, whichever way it moved.
  for (uint32_t bad : {0u, 1u, 3u, 5u, 255u, 256u, 1000u}) {
    { MakeFile(3); }
    {
      std::FILE* raw = std::fopen(Path().c_str(), "r+b");
      ASSERT_NE(raw, nullptr);
      std::fseek(raw, 2 * 4096 + 4, SEEK_SET);  // page 1's count word
      ASSERT_EQ(std::fwrite(&bad, 1, sizeof(bad), raw), sizeof(bad));
      std::fclose(raw);
    }
    std::unique_ptr<PageFile> f = PageFile::Open(Path());
    ASSERT_NE(f, nullptr);
    auto buf = std::make_unique<Page>();
    EXPECT_TRUE(f->ReadPage(0, buf.get())) << bad;
    EXPECT_FALSE(f->ReadPage(1, buf.get())) << bad;
    EXPECT_TRUE(f->ReadPage(2, buf.get())) << bad;
  }
  // The right counts of the edge shapes pass: a single pair whose key is
  // 0, and a full page (no zero slot after it).
  std::unique_ptr<PageFile> f = PageFile::Create(Path("edges.pages"));
  ASSERT_NE(f, nullptr);
  auto buf = std::make_unique<Page>();
  PageFile::SetPageCount(buf.get(), 1);
  PageFile::PageEntries(buf.get())[0] = {0, 0};
  ASSERT_TRUE(f->WritePage(0, buf.get()));
  PageFile::SetPageCount(buf.get(), kEntriesPerPage);
  for (size_t i = 0; i < kEntriesPerPage; ++i) {
    PageFile::PageEntries(buf.get())[i] = {1000 + i, i};
  }
  ASSERT_TRUE(f->WritePage(1, buf.get()));
  ASSERT_TRUE(f->SyncHeader(1 + kEntriesPerPage));
  EXPECT_TRUE(f->ReadPage(0, buf.get()));
  EXPECT_TRUE(f->ReadPage(1, buf.get()));
}

TEST_F(TieredPoolTest, CorruptHeaderFailsOpen) {
  { MakeFile(2); }
  {
    std::FILE* raw = std::fopen(Path().c_str(), "r+b");
    ASSERT_NE(raw, nullptr);
    std::fseek(raw, 16, SEEK_SET);  // num_data_pages field
    std::fputc(0x7F, raw);
    std::fclose(raw);
  }
  EXPECT_EQ(PageFile::Open(Path()), nullptr);
}

TEST_F(TieredPoolTest, MissingFileFailsOpen) {
  EXPECT_EQ(PageFile::Open(Path("absent.pages")), nullptr);
}

TEST_F(TieredPoolTest, PoolHitsAndMisses) {
  std::unique_ptr<PageFile> f = MakeFile(4);
  BufferPool pool(f.get(), 8);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t p = 0; p < 4; ++p) {
      PageRef ref = pool.Pin(p);
      EXPECT_EQ(PageFile::PageEntries(ref.data())[0].key, p * 1000);
    }
  }
  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 4u);   // first round faults each page once
  EXPECT_EQ(s.hits, 8u);     // two more rounds hit
  EXPECT_EQ(s.page_reads, 4u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST_F(TieredPoolTest, TinyBudgetForcesEvictionsWithoutCorruption) {
  std::unique_ptr<PageFile> f = MakeFile(16);
  BufferPool pool(f.get(), 3);
  // Several sweeps over 16 pages through 3 frames: every round after the
  // first must keep evicting, and the data must stay intact.
  for (int round = 0; round < 4; ++round) {
    for (uint64_t p = 0; p < 16; ++p) {
      PageRef ref = pool.Pin(p);
      const KeyValue* kv = PageFile::PageEntries(ref.data());
      ASSERT_EQ(kv[0].key, p * 1000) << "round " << round;
      ASSERT_EQ(kv[0].value, p);
    }
  }
  const BufferPoolStats s = pool.stats();
  EXPECT_GT(s.evictions, 16u * 3);
  EXPECT_EQ(s.hits + s.misses, 64u);
}

TEST_F(TieredPoolTest, PinnedFramesAreNotEvicted) {
  std::unique_ptr<PageFile> f = MakeFile(8);
  BufferPool pool(f.get(), 3);
  PageRef a = pool.Pin(0);
  PageRef b = pool.Pin(1);
  // One free frame cycles through the rest; the pinned pages survive.
  for (uint64_t p = 2; p < 8; ++p) {
    PageRef ref = pool.Pin(p);
    EXPECT_EQ(PageFile::PageEntries(ref.data())[0].key, p * 1000);
  }
  EXPECT_EQ(PageFile::PageEntries(a.data())[0].key, 0u);
  EXPECT_EQ(PageFile::PageEntries(b.data())[0].key, 1000u);
  // With every frame pinned, Pin neither evicts nor fails: it waits
  // until a second thread releases a pin, then takes that frame.
  PageRef c = pool.Pin(2);
  std::thread releaser([&c] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    c.Release();
  });
  PageRef d = pool.Pin(3);
  releaser.join();
  EXPECT_EQ(PageFile::PageEntries(d.data())[0].key, 3000u);
  EXPECT_EQ(PageFile::PageEntries(a.data())[0].key, 0u);
  EXPECT_EQ(PageFile::PageEntries(b.data())[0].key, 1000u);
}

TEST_F(TieredPoolTest, ScanDoesNotFlushTheHotSet) {
  // Four hot pages earn hits, then one sweep touches 30 cold pages once
  // each through 10 frames. The cold pages cycle through the small
  // queue; the hot ones moved to the main queue at the first eviction
  // and are all still resident. (CLOCK, which the pool used before,
  // clears every reference bit within one revolution and evicts all
  // four during the sweep.)
  std::unique_ptr<PageFile> f = MakeFile(34);
  BufferPool pool(f.get(), 10);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t p = 0; p < 4; ++p) pool.Pin(p);
  }
  for (uint64_t p = 4; p < 34; ++p) pool.Pin(p);
  const BufferPoolStats before = pool.stats();
  EXPECT_EQ(before.misses, 34u);
  EXPECT_EQ(before.evictions, 24u);
  for (uint64_t p = 0; p < 4; ++p) {
    PageRef ref = pool.Pin(p);
    EXPECT_EQ(PageFile::PageEntries(ref.data())[0].key, p * 1000);
  }
  const BufferPoolStats after = pool.stats();
  EXPECT_EQ(after.hits - before.hits, 4u);
  EXPECT_EQ(after.misses, before.misses);
}

TEST_F(TieredPoolTest, GhostHitEntersTheMainQueue) {
  // 10 frames: a small queue of 1 and a ghost FIFO of 9 pages. Page 0
  // is evicted from the small queue unread, comes back while its id is
  // in the ghost FIFO and so enters the main queue, where a sweep of 30
  // cold pages, each evicted from the small queue, does not reach it.
  std::unique_ptr<PageFile> f = MakeFile(41);
  BufferPool pool(f.get(), 10);
  for (uint64_t p = 0; p <= 10; ++p) pool.Pin(p);
  ASSERT_EQ(pool.stats().evictions, 1u);  // page 0
  pool.Pin(0);
  for (uint64_t p = 11; p < 41; ++p) pool.Pin(p);
  const uint64_t hits = pool.stats().hits;
  pool.Pin(0);
  EXPECT_EQ(pool.stats().hits, hits + 1);
}

TEST_F(TieredPoolTest, MainQueueEvictsThePageWithFewestHitsFirst) {
  // 3 frames: a small queue of 1 and a main queue of 2. Pages 0, 1 and
  // 3 reach the main queue with 3, 1 and 1 hits; the next fault finds
  // the small queue empty, and the main queue spends one hit per pass
  // until page 1 runs out first. Page 0 stays.
  std::unique_ptr<PageFile> f = MakeFile(5);
  BufferPool pool(f.get(), 3);
  for (uint64_t p = 0; p < 3; ++p) pool.Pin(p);
  for (int i = 0; i < 3; ++i) pool.Pin(0);
  pool.Pin(1);
  pool.Pin(3);  // pages 0 and 1 move to the main queue; 2 is evicted
  pool.Pin(3);
  pool.Pin(4);  // page 3 moves too; the main queue evicts page 1
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.evictions, 2u);
  pool.Pin(0);
  EXPECT_EQ(pool.stats().hits, s.hits + 1);
  s = pool.stats();
  pool.Pin(1);
  EXPECT_EQ(pool.stats().misses, s.misses + 1);
}

TEST_F(TieredPoolTest, ZipfTraceHitsAboveClock) {
  // A fixed zipf(0.99) trace of 20000 pins over 400 pages through 40
  // frames (10% of the pages). The CLOCK pool this one replaced hit
  // 9897 times on this trace; S3-FIFO hits 11942 times.
  std::unique_ptr<PageFile> f = MakeFile(400);
  BufferPool pool(f.get(), 40);
  ZipfSampler zipf(400, 0.99, 7);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t p = zipf.Sample();
    PageRef ref = pool.Pin(p);
    ASSERT_EQ(PageFile::PageEntries(ref.data())[0].key, p * 1000);
  }
  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, 20000u);
  EXPECT_GT(s.hits, 9897u);
}

TEST_F(TieredPoolTest, EvictsTheOneUnpinnedFrameWithoutWaiting) {
  // Three of four frames are pinned and the fourth holds a page hit
  // three times, the most a frame's count records. A new page must
  // take that frame (lowering its count to 0 first), not wait for an
  // unpin: no other thread runs here, so a wait would never end.
  std::unique_ptr<PageFile> f = MakeFile(5);
  BufferPool pool(f.get(), 4);
  for (uint64_t p = 0; p < 4; ++p) pool.Pin(p);
  for (int i = 0; i < 3; ++i) pool.Pin(3);
  PageRef a = pool.Pin(0);
  PageRef b = pool.Pin(1);
  PageRef c = pool.Pin(2);
  {
    PageRef d = pool.Pin(4);
    EXPECT_EQ(PageFile::PageEntries(d.data())[0].key, 4000u);
  }
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.misses, 5u);
  EXPECT_EQ(PageFile::PageEntries(a.data())[0].key, 0u);
  EXPECT_EQ(PageFile::PageEntries(b.data())[0].key, 1000u);
  EXPECT_EQ(PageFile::PageEntries(c.data())[0].key, 2000u);
  // Page 3 was the victim: pinning it again is a miss.
  pool.Pin(3);
  s = pool.stats();
  EXPECT_EQ(s.misses, 6u);
}

TEST_F(TieredPoolTest, EvictsFromTheSmallQueueWhenTheMainQueueIsPinned) {
  // 20 frames: a small queue of 2 and a main queue of 18. The steps
  // below leave 19 pinned pages in the main queue and one unpinned page
  // alone in the small queue, below its share. A new page must take
  // that frame rather than wait for an unpin that never comes.
  std::unique_ptr<PageFile> f = MakeFile(22);
  BufferPool pool(f.get(), 20);
  auto evictions = [&pool] { return pool.stats().evictions; };
  for (uint64_t p = 0; p < 20; ++p) pool.Pin(p);
  for (uint64_t p = 0; p < 19; ++p) pool.Pin(p);
  // Pages 0-18 move to the main queue, which then evicts page 0.
  pool.Pin(20);
  ASSERT_EQ(evictions(), 1u);
  pool.Pin(20);
  std::vector<PageRef> pinned;
  for (uint64_t p = 1; p < 19; ++p) pinned.push_back(pool.Pin(p));
  // The small queue, [19, 20], evicts page 19 into the ghost FIFO.
  pool.Pin(0);
  ASSERT_EQ(evictions(), 2u);
  // A ghost hit enters the main queue; page 20 moves there too and is
  // the main queue's only unpinned frame, so it goes.
  pinned.push_back(pool.Pin(19));
  ASSERT_EQ(evictions(), 3u);
  // Main: pages 1-19, all pinned. Small: page 0 alone.
  {
    PageRef ref = pool.Pin(21);
    EXPECT_EQ(PageFile::PageEntries(ref.data())[0].key, 21000u);
  }
  EXPECT_EQ(evictions(), 4u);
  for (const PageRef& ref : pinned) {
    const uint64_t p = PageFile::PageEntries(ref.data())[0].value;
    EXPECT_EQ(PageFile::PageEntries(ref.data())[0].key, p * 1000);
  }
  // Page 0 was the victim.
  const uint64_t misses = pool.stats().misses;
  pool.Pin(0);
  EXPECT_EQ(pool.stats().misses, misses + 1);
}

TEST_F(TieredPoolTest, ResetRetargetsPool) {
  std::unique_ptr<PageFile> f = MakeFile(4);
  BufferPool pool(f.get(), 4);
  { PageRef warm = pool.Pin(0); }
  // Build a second file with different contents and swap it in.
  std::unique_ptr<PageFile> g = PageFile::Create(Path("other.pages"));
  ASSERT_NE(g, nullptr);
  auto buf = std::make_unique<Page>();
  PageFile::SetPageCount(buf.get(), 1);
  PageFile::PageEntries(buf.get())[0] = {42, 43};
  ASSERT_TRUE(g->WritePage(0, buf.get()));
  ASSERT_TRUE(g->SyncHeader(1));
  pool.Reset(g.get());
  PageRef ref = pool.Pin(0);
  EXPECT_EQ(PageFile::PageEntries(ref.data())[0].key, 42u);
}

TEST_F(TieredPoolTest, ConcurrentReadersShareThePool) {
  // TSan coverage: N threads hammer overlapping pages through a pool
  // with fewer frames than threads, so frames are evicted and re-read
  // while other readers hold or just dropped them. Every entry of each
  // pinned page is checked: an unpin that is not ordered before the
  // next pread into its frame races on the page bytes, not only on
  // entry 0. Contents must always match and no race may fire.
  //
  // With fewer frames than threads, a miss can find every frame pinned;
  // Pin then waits for an unpin, so every Pin succeeds once and the
  // counters balance exactly: a hit or a miss per Pin, a read per miss.
  static constexpr uint32_t kPerPage = 32;
  std::unique_ptr<PageFile> f = MakeFile(12, kPerPage);
  BufferPool pool(f.get(), 3);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < 400; ++i) {
        const uint64_t p = static_cast<uint64_t>((i * 7 + t * 3) % 12);
        PageRef ref = pool.Pin(p);
        ASSERT_EQ(PageFile::PageCount(ref.data()), kPerPage);
        const KeyValue* kv = PageFile::PageEntries(ref.data());
        for (uint32_t e = 0; e < kPerPage; ++e) {
          ASSERT_EQ(kv[e].key, p * 1000 + e) << "page " << p << " entry " << e;
          ASSERT_EQ(kv[e].value, p) << "page " << p << " entry " << e;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, 1600u);
  EXPECT_EQ(s.page_reads, s.misses);
  EXPECT_GT(s.evictions, 0u);
}

TEST_F(TieredPoolTest, CorruptPageReadAbortsNamingThePage) {
  { MakeFile(3); }
  // Flip one data byte of page 1 so its CRC check fails on every read.
  {
    std::FILE* raw = std::fopen(Path().c_str(), "r+b");
    ASSERT_NE(raw, nullptr);
    std::fseek(raw, 2 * 4096 + 100, SEEK_SET);
    std::fputc(0x5A, raw);
    std::fclose(raw);
  }
  std::unique_ptr<PageFile> f = PageFile::Open(Path());
  ASSERT_NE(f, nullptr);
  BufferPool pool(f.get(), 2);
  EXPECT_EQ(PageFile::PageEntries(pool.Pin(0).data())[0].key, 0u);
  // A page the pool cannot read is not a miss: a caller would report
  // a key on that page as absent. The process stops instead.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(pool.Pin(1), "page 1 of .*t\\.pages is corrupt");
}

TEST_F(TieredPoolTest, RejectsBadPageSizes) {
  // The header records the page size (offset 12) under a CRC over its
  // first 32 bytes (stored at offset 32). A file whose header validly
  // records any size but kPageSize is not a run this build can read.
  { MakeFile(2); }
  auto rewrite_page_size = [&](uint32_t page_size) {
    std::FILE* raw = std::fopen(Path().c_str(), "r+b");
    ASSERT_NE(raw, nullptr);
    uint8_t header[32];
    ASSERT_EQ(std::fread(header, 1, sizeof(header), raw), sizeof(header));
    std::memcpy(header + 12, &page_size, sizeof(page_size));
    const uint32_t crc = Crc32c(header, sizeof(header));
    std::fseek(raw, 0, SEEK_SET);
    ASSERT_EQ(std::fwrite(header, 1, sizeof(header), raw), sizeof(header));
    ASSERT_EQ(std::fwrite(&crc, 1, sizeof(crc), raw), sizeof(crc));
    std::fclose(raw);
  };
  for (uint32_t bad : {512u, 8192u, 100u}) {
    rewrite_page_size(bad);
    EXPECT_EQ(PageFile::Open(Path()), nullptr) << bad;
  }
  // The same rewrite with the real size opens: the CRC is recomputed
  // correctly, so only the size was rejected above.
  rewrite_page_size(static_cast<uint32_t>(kPageSize));
  std::unique_ptr<PageFile> f = PageFile::Open(Path());
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->num_pages(), 2u);
}

/// Checks PageLowerBound on a page holding `keys` (ascending) with
/// anchors [first, last] against std::lower_bound, for every key, its
/// neighbours, the midpoints between keys, the anchors and their
/// neighbours, and both ends of the key domain.
void ExpectSlotsMatchLowerBound(const std::vector<Key>& keys, Key first,
                                Key last) {
  ASSERT_LE(keys.size(), kEntriesPerPage);
  auto page = std::make_unique<Page>();
  KeyValue* entries = PageFile::PageEntries(page.get());
  for (size_t i = 0; i < keys.size(); ++i) entries[i] = {keys[i], i};
  constexpr Key kMax = std::numeric_limits<Key>::max();
  std::vector<Key> probes = {0, kMax, first, last};
  for (Key k : {first, last}) {
    if (k > 0) probes.push_back(k - 1);
    if (k < kMax) probes.push_back(k + 1);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    probes.push_back(keys[i]);
    if (keys[i] > 0) probes.push_back(keys[i] - 1);
    if (keys[i] < kMax) probes.push_back(keys[i] + 1);
    if (i + 1 < keys.size()) {
      probes.push_back(keys[i] + (keys[i + 1] - keys[i]) / 2);
    }
  }
  KeyValue* end = entries + keys.size();
  for (Key probe : probes) {
    const size_t want = static_cast<size_t>(
        std::lower_bound(entries, end, probe,
                         [](const KeyValue& kv, Key k) { return kv.key < k; }) -
        entries);
    ASSERT_EQ(PageLowerBound(entries, keys.size(), probe, first, last), want)
        << "probe " << probe << " on " << keys.size() << " keys in ["
        << first << ", " << last << "]";
  }
}

TEST(PageLowerBoundTest, OneEntryPages) {
  // A page with a next fence, and a run's last page, whose anchors are
  // its one key twice.
  ExpectSlotsMatchLowerBound({500}, 500, 900);
  ExpectSlotsMatchLowerBound({500}, 500, 500);
  ExpectSlotsMatchLowerBound({0}, 0, 1);
}

TEST(PageLowerBoundTest, FullEvenlySpreadPage) {
  std::vector<Key> keys;
  for (Key i = 0; i < kEntriesPerPage; ++i) keys.push_back(1000 + 7 * i);
  ExpectSlotsMatchLowerBound(keys, 1000, 1000 + 7 * kEntriesPerPage);
}

TEST(PageLowerBoundTest, LastPageIsAnchoredAtItsLargestKey) {
  std::vector<Key> keys;
  for (Key i = 0; i < 100; ++i) keys.push_back(10 * i + 3);
  ExpectSlotsMatchLowerBound(keys, keys.front(), keys.back());
  // A last page ending at the largest key: max_key + 1 would wrap.
  keys.back() = std::numeric_limits<Key>::max();
  ExpectSlotsMatchLowerBound(keys, keys.front(), keys.back());
}

TEST(PageLowerBoundTest, KeysClusteredAtEitherEndOfTheFenceRange) {
  // Every guess lands far from the slot: the gallop must cover the page.
  std::vector<Key> low;
  for (Key i = 0; i < kEntriesPerPage; ++i) low.push_back(1000 + i);
  ExpectSlotsMatchLowerBound(low, 1000, 1'000'000);
  std::vector<Key> high = {1000};
  for (Key i = 1; i < kEntriesPerPage; ++i) high.push_back(999'745 + i);
  ExpectSlotsMatchLowerBound(high, 1000, 1'000'000);
  // Anchors spanning the whole key domain, keys doubling.
  std::vector<Key> doubling;
  for (int i = 0; i < 64; ++i) doubling.push_back(Key{1} << i);
  ExpectSlotsMatchLowerBound(doubling, 1, std::numeric_limits<Key>::max());
}

TEST(PageLowerBoundTest, RandomPagesMatchLowerBound) {
  Rng rng(33);
  for (int round = 0; round < 300; ++round) {
    const size_t count = 1 + rng.NextBounded(kEntriesPerPage);
    const Key span = Key{1} << (8 + rng.NextBounded(48));
    const Key first = rng.NextBounded(Key{1} << 62);
    std::vector<Key> keys = {first};
    while (keys.size() < count) {
      // Squared draws skew the gaps, like the skewed datasets do.
      const double u = rng.NextDouble();
      keys.push_back(first + 1 + static_cast<Key>(u * u * (span - 1)));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    const bool last_page = rng.NextBounded(2) == 0;
    ExpectSlotsMatchLowerBound(keys, first,
                               last_page ? keys.back() : first + span);
  }
}

}  // namespace
}  // namespace chameleon::tiered
