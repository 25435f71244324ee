// Tests for the CRC-32C implementation guarding Disk pages, WAL records,
// snapshots and the shard manifest (util/crc32c.h), including the
// differential check of its hardware path against the table path.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/crc32c.h"
#include "src/util/random.h"

namespace chameleon {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // The canonical CRC-32C check value (RFC 3720 appendix / every
  // implementation's smoke test).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  EXPECT_EQ(Crc32c("a", 1), 0xC1D04330u);
  // 32 zero bytes (iSCSI test vector).
  const std::vector<unsigned char> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::vector<unsigned char> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  Rng rng(17);
  std::vector<unsigned char> data(4097);
  for (auto& b : data) b = static_cast<unsigned char>(rng.Next());
  const uint32_t whole = Crc32c(data.data(), data.size());
  // Any split point must produce the same value.
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                       size_t{4000}, data.size()}) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string msg = "the WAL record this checksum protects";
  const uint32_t good = Crc32c(msg.data(), msg.size());
  for (size_t byte = 0; byte < msg.size(); byte += 3) {
    for (int bit = 0; bit < 8; bit += 5) {
      msg[byte] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32c(msg.data(), msg.size()), good)
          << "byte " << byte << " bit " << bit;
      msg[byte] ^= static_cast<char>(1 << bit);
    }
  }
}

TEST(Crc32cTest, UnalignedStartsMatch) {
  // The hardware path folds 8 bytes at a time; make sure odd offsets
  // and lengths agree with a byte-at-a-time reference via Extend.
  Rng rng(23);
  std::vector<unsigned char> data(257);
  for (auto& b : data) b = static_cast<unsigned char>(rng.Next());
  for (size_t off = 0; off < 9; ++off) {
    for (size_t len : {size_t{0}, size_t{1}, size_t{8}, size_t{15},
                       size_t{100}}) {
      uint32_t byte_wise = 0;
      for (size_t i = 0; i < len; ++i) {
        byte_wise = Crc32cExtend(byte_wise, data.data() + off + i, 1);
      }
      EXPECT_EQ(Crc32c(data.data() + off, len), byte_wise)
          << "off " << off << " len " << len;
    }
  }
}

// RFC 3720 (iSCSI) appendix B.4 vectors plus the common check value,
// run on each path directly rather than through the dispatcher.
void ExpectRfc3720Vectors(uint32_t (*extend)(uint32_t, const void*, size_t),
                          const char* path) {
  SCOPED_TRACE(path);
  std::vector<unsigned char> buf(32, 0);
  EXPECT_EQ(extend(0, buf.data(), buf.size()), 0x8A9136AAu);
  buf.assign(32, 0xFF);
  EXPECT_EQ(extend(0, buf.data(), buf.size()), 0x62A8AB43u);
  for (size_t i = 0; i < 32; ++i) buf[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(extend(0, buf.data(), buf.size()), 0x46DD794Eu);
  for (size_t i = 0; i < 32; ++i) buf[i] = static_cast<unsigned char>(31 - i);
  EXPECT_EQ(extend(0, buf.data(), buf.size()), 0x113FDB5Cu);
  EXPECT_EQ(extend(0, "123456789", 9), 0xE3069283u);
  EXPECT_EQ(extend(0, "", 0), 0x00000000u);
}

TEST(Crc32cTest, BothPathsMatchRfc3720Vectors) {
  ExpectRfc3720Vectors(&crc32c_internal::ExtendPortable, "portable");
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no crc32 instruction on this CPU";
  }
  ExpectRfc3720Vectors(&crc32c_internal::ExtendHardware, "hardware");
}

TEST(Crc32cTest, HardwareMatchesPortableOnEveryLengthAndOffset) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no crc32 instruction on this CPU";
  }
  Rng rng(29);
  std::vector<unsigned char> data(4096 + 8);
  for (auto& b : data) b = static_cast<unsigned char>(rng.Next());
  for (size_t off = 0; off < 8; ++off) {
    for (size_t len = 0; len <= 4096; ++len) {
      const uint32_t seed = static_cast<uint32_t>(len * 2654435761u);
      const unsigned char* p = data.data() + off;
      ASSERT_EQ(crc32c_internal::ExtendHardware(seed, p, len),
                crc32c_internal::ExtendPortable(seed, p, len))
          << "off " << off << " len " << len;
    }
  }
}

// The hardware path splits inputs of 768 bytes and more into rounds of
// three interleaved 256-byte streams and runs the rest serially, so the
// lengths on either side of a whole number of rounds are where a wrong
// merge or a wrong tail would show.
TEST(Crc32cTest, HardwareMatchesPortableAroundThreeStreamRounds) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no crc32 instruction on this CPU";
  }
  static constexpr size_t kRound = 3 * 256;
  static constexpr size_t kMax = 64 * 1024;
  Rng rng(37);
  std::vector<unsigned char> data(kMax + 8 + 8);
  for (auto& b : data) b = static_cast<unsigned char>(rng.Next());
  for (size_t rounds = 1; rounds * kRound <= kMax + 8; ++rounds) {
    for (size_t len : {rounds * kRound - 8, rounds * kRound - 7,
                       rounds * kRound - 1, rounds * kRound,
                       rounds * kRound + 1, rounds * kRound + 7,
                       rounds * kRound + 8}) {
      if (len > kMax + 8) continue;
      for (size_t off = 0; off < 8; ++off) {
        const uint32_t seed = static_cast<uint32_t>(len * 2654435761u + off);
        const unsigned char* p = data.data() + off;
        ASSERT_EQ(crc32c_internal::ExtendHardware(seed, p, len),
                  crc32c_internal::ExtendPortable(seed, p, len))
            << "off " << off << " len " << len;
      }
    }
  }
}

TEST(Crc32cTest, HardwareMatchesPortableUpToOneMiB) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no crc32 instruction on this CPU";
  }
  static constexpr size_t kMax = 1024 * 1024;
  Rng rng(41);
  std::vector<unsigned char> data(kMax + 8);
  for (auto& b : data) b = static_cast<unsigned char>(rng.Next());
  std::vector<size_t> lens = {kMax, kMax - 1, kMax - 768, 4088, 4096,
                              65536 + 3};
  for (int i = 0; i < 200; ++i) lens.push_back(rng.Next() % (kMax + 1));
  for (size_t len : lens) {
    const size_t off = len % 8;
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    const unsigned char* p = data.data() + off;
    ASSERT_EQ(crc32c_internal::ExtendHardware(seed, p, len),
              crc32c_internal::ExtendPortable(seed, p, len))
        << "off " << off << " len " << len;
  }
}

TEST(Crc32cTest, PathsContinueEachOther) {
  // A checksum begun on one path and finished on the other equals the
  // one-shot value: the running state means the same on both.
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no crc32 instruction on this CPU";
  }
  Rng rng(31);
  std::vector<unsigned char> data(4099);
  for (auto& b : data) b = static_cast<unsigned char>(rng.Next());
  const uint32_t whole = Crc32c(data.data(), data.size());
  // 300, 1100, 1700 and 2900 fall inside the whole input's three-stream
  // rounds (768 bytes each from offset 0, three 256-byte streams): in
  // the second, second, first and third stream of rounds 0 to 3.
  for (size_t split : {size_t{0}, size_t{3}, size_t{8}, size_t{13},
                       size_t{300}, size_t{1100}, size_t{1700},
                       size_t{2048}, size_t{2900}, size_t{4091},
                       data.size()}) {
    const unsigned char* rest = data.data() + split;
    const size_t rest_n = data.size() - split;
    uint32_t crc = crc32c_internal::ExtendPortable(0, data.data(), split);
    EXPECT_EQ(crc32c_internal::ExtendHardware(crc, rest, rest_n), whole)
        << "portable then hardware, split " << split;
    crc = crc32c_internal::ExtendHardware(0, data.data(), split);
    EXPECT_EQ(crc32c_internal::ExtendPortable(crc, rest, rest_n), whole)
        << "hardware then portable, split " << split;
  }
}

}  // namespace
}  // namespace chameleon
