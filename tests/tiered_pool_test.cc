// Unit tests for the tiered storage primitives: the page-aligned leaf
// file format (CRC + page_seq validation, fixed 4 KiB geometry) and the
// read-only CLOCK buffer pool (pin/unpin, eviction under a tiny frame
// budget, waiting for a frame when all are pinned, aborting on a page
// that fails its read).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/tiered/buffer_pool.h"
#include "src/tiered/page_file.h"
#include "src/util/common.h"
#include "src/util/crc32c.h"

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

}  // namespace
}  // namespace chameleon::tiered
