#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/latency_histogram.h"
#include "src/util/io.h"
#include "src/util/random.h"
#include "src/util/timer.h"

namespace chameleon {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    (void)c.Next();
  }
  Rng a2(123), c2(124);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c2.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 10 * 0.1);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

TEST(ZipfTest, Theta0IsUniform) {
  ZipfSampler zipf(100, 1e-9, 3);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[zipf.Sample()];
  EXPECT_NEAR(counts[0], 1'000, 300);
  EXPECT_NEAR(counts[99], 1'000, 300);
}

TEST(ZipfTest, HighThetaIsHeadHeavy) {
  ZipfSampler zipf(1'000, 0.99, 4);
  std::vector<int> counts(1'000, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[zipf.Sample()];
  EXPECT_GT(counts[0], counts[500] * 5);
  // Rank 0 should get a substantial share.
  EXPECT_GT(counts[0], 5'000);
}

// Summary statistics the bench harnesses report, straight from
// obs::LatencyHistogram (the former util/latency_recorder.h wrapper is
// gone; obs_test.cc covers the bucket mechanics in depth).
TEST(LatencyStatisticsTest, HistogramSummaryStatistics) {
  obs::LatencyHistogram rec;
  EXPECT_EQ(rec.MeanNanos(), 0.0);
  for (int i = 1; i <= 100; ++i) rec.Record(i);
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_NEAR(rec.MeanNanos(), 50.5, 1e-9);
  EXPECT_NEAR(rec.PercentileNanos(50), 50.5, 1.0);
  EXPECT_NEAR(rec.PercentileNanos(99), 99.01, 0.5);
  EXPECT_EQ(rec.MaxNanos(), 100.0);
  rec.Clear();
  EXPECT_EQ(rec.count(), 0u);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  // Busy wait ~1ms.
  volatile uint64_t x = 0;
  while (timer.ElapsedNanos() < 1'000'000) x = x + 1;
  EXPECT_GE(timer.ElapsedMicros(), 1'000.0);
  EXPECT_GE(timer.ElapsedMillis(), 1.0);
  timer.Reset();
  EXPECT_LT(timer.ElapsedMillis(), 1.0);
}

TEST(IoTest, SosdRoundTrip) {
  const std::string path = ::testing::TempDir() + "/sosd_test.bin";
  std::vector<Key> keys = {1, 5, 42, 1'000'000, kMaxKey - 1};
  ASSERT_TRUE(WriteSosdFile(path, keys));
  std::vector<Key> loaded;
  ASSERT_TRUE(ReadSosdFile(path, &loaded));
  EXPECT_EQ(loaded, keys);
  std::remove(path.c_str());
}

TEST(IoTest, SosdRoundTripEmptyAndLarge) {
  const std::string path = ::testing::TempDir() + "/sosd_sizes.bin";
  for (size_t n : {size_t{0}, size_t{100'000}}) {
    std::vector<Key> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = i * 3 + 1;
    ASSERT_TRUE(WriteSosdFile(path, keys)) << n;
    std::vector<Key> loaded = {999};  // must be fully replaced
    ASSERT_TRUE(ReadSosdFile(path, &loaded)) << n;
    EXPECT_EQ(loaded, keys) << n;
  }
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileFails) {
  std::vector<Key> keys;
  EXPECT_FALSE(ReadSosdFile("/nonexistent/nope.bin", &keys));
}

TEST(IoTest, WriteToUnwritablePathFails) {
  // Both failure modes report errno context on stderr; what we can
  // assert portably is the clean false (no crash, no partial success).
  EXPECT_FALSE(WriteSosdFile("/nonexistent/dir/out.bin", {1, 2, 3}));
}

TEST(IoTest, TruncatedFileFails) {
  const std::string path = ::testing::TempDir() + "/sosd_trunc.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const uint64_t claimed = 100;  // but write only 2 keys
    std::fwrite(&claimed, sizeof(claimed), 1, f);
    const Key k = 7;
    std::fwrite(&k, sizeof(k), 1, f);
    std::fwrite(&k, sizeof(k), 1, f);
    std::fclose(f);
  }
  std::vector<Key> keys;
  EXPECT_FALSE(ReadSosdFile(path, &keys));
  EXPECT_TRUE(keys.empty());
  std::remove(path.c_str());
}

namespace {

/// Writes `text` to `path` and flushes it (a CommitFile writer's job).
bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::string ReadText(const std::string& path) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(ReadWholeFile(path, &bytes)) << path;
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

TEST(IoTest, CommitFileReplacesTheFile) {
  const std::string path = ::testing::TempDir() + "/commit_replace.bin";
  ASSERT_TRUE(WriteText(path, "old contents"));
  std::string handed;
  ASSERT_TRUE(CommitFile(path, [&](const std::string& tmp) {
    handed = tmp;
    return WriteText(tmp, "new");
  }));
  EXPECT_EQ(handed, path + ".tmp");
  EXPECT_EQ(ReadText(path), "new");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(IoTest, FailedCommitKeepsThePreviousFileAndNoTemp) {
  const std::string path = ::testing::TempDir() + "/commit_fail.bin";
  const std::string old_bytes("previous\0run\xff", 13);
  ASSERT_TRUE(WriteText(path, old_bytes));
  // The writer fails after it has written (and even grown) the temp.
  EXPECT_FALSE(CommitFile(path, [](const std::string& tmp) {
    return WriteText(tmp, std::string(100'000, 'x')) && false;
  }));
  EXPECT_EQ(ReadText(path), old_bytes);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(IoTest, ListNumberedTakesOnlyWholeNames) {
  const std::string dir = ::testing::TempDir() + "/list_numbered";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const uint64_t seq : {3, 12}) {
    ASSERT_TRUE(WriteText(NumberedPath(dir, "snap-", seq, ".snap"), "x"));
  }
  // A commit's temp and a foreign suffix are not numbered files.
  ASSERT_TRUE(WriteText(NumberedPath(dir, "snap-", 7, ".snap") + ".tmp", "x"));
  ASSERT_TRUE(WriteText(NumberedPath(dir, "snap-", 8, ".wal"), "x"));
  EXPECT_EQ(ListNumbered(dir, "snap-", ".snap"),
            (std::vector<uint64_t>{3, 12}));
  std::filesystem::remove_all(dir);
}

TEST(IoTest, ReadWholeFileFailsOnMissingFile) {
  std::vector<uint8_t> bytes = {1, 2, 3};
  EXPECT_FALSE(ReadWholeFile("/nonexistent/nope.bin", &bytes));
}

}  // namespace
}  // namespace chameleon
