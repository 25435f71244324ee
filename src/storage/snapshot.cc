#include "src/storage/snapshot.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "src/core/chameleon_index.h"
#include "src/util/crc32c.h"
#include "src/util/io.h"

namespace chameleon {
namespace {

constexpr uint32_t kMagic = 0x43534E50;  // "CSNP"
constexpr uint32_t kVersion = 1;
// magic + version + kind + count + wal_seq (packed by hand, no padding).
constexpr size_t kHeaderBodySize = 4 + 4 + 1 + 8 + 8;
constexpr size_t kHeaderSize = kHeaderBodySize + 4;  // + header_crc

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void PackHeader(uint8_t (&buf)[kHeaderBodySize], const SnapshotMeta& meta) {
  std::memcpy(buf, &kMagic, 4);
  std::memcpy(buf + 4, &kVersion, 4);
  buf[8] = static_cast<uint8_t>(meta.kind);
  std::memcpy(buf + 9, &meta.count, 8);
  std::memcpy(buf + 17, &meta.wal_seq, 8);
}

bool ReadHeader(std::FILE* f, SnapshotMeta* meta) {
  uint8_t buf[kHeaderBodySize];
  uint32_t stored_crc = 0;
  if (std::fread(buf, 1, sizeof(buf), f) != sizeof(buf) ||
      std::fread(&stored_crc, 4, 1, f) != 1) {
    return false;
  }
  if (Crc32c(buf, sizeof(buf)) != stored_crc) return false;
  uint32_t magic = 0, version = 0;
  std::memcpy(&magic, buf, 4);
  std::memcpy(&version, buf + 4, 4);
  if (magic != kMagic || version != kVersion || buf[8] > 1) return false;
  meta->kind = static_cast<SnapshotKind>(buf[8]);
  std::memcpy(&meta->count, buf + 9, 8);
  std::memcpy(&meta->wal_seq, buf + 17, 8);
  return true;
}

/// crc32c of `len` bytes starting at the current position; restores the
/// position on success.
bool CrcOfRange(std::FILE* f, long start, uint64_t len, uint32_t* crc) {
  if (std::fseek(f, start, SEEK_SET) != 0) return false;
  uint8_t buf[1 << 16];
  uint32_t c = 0;
  uint64_t left = len;
  while (left > 0) {
    const size_t chunk =
        left < sizeof(buf) ? static_cast<size_t>(left) : sizeof(buf);
    if (std::fread(buf, 1, chunk, f) != chunk) return false;
    c = Crc32cExtend(c, buf, chunk);
    left -= chunk;
  }
  *crc = c;
  return true;
}

}  // namespace

bool WriteSnapshot(const KvIndex& index, const std::string& path,
                   uint64_t wal_seq) {
  const auto* chameleon = dynamic_cast<const ChameleonIndex*>(&index);
  SnapshotMeta meta;
  meta.kind = chameleon != nullptr ? SnapshotKind::kChameleonNative
                                   : SnapshotKind::kSortedPairs;
  meta.count = index.size();
  meta.wal_seq = wal_seq;

  const std::string tmp = path + ".tmp";
  // "w+b": the native path reads the stream back (CrcOfRange) after
  // writing it, which a write-only stream would refuse.
  FilePtr f(std::fopen(tmp.c_str(), "w+b"));
  if (f == nullptr) return false;
  std::FILE* fp = f.get();

  uint8_t header[kHeaderBodySize];
  PackHeader(header, meta);
  const uint32_t header_crc = Crc32c(header, sizeof(header));
  if (std::fwrite(header, 1, sizeof(header), fp) != sizeof(header) ||
      std::fwrite(&header_crc, 4, 1, fp) != 1) {
    return false;
  }

  uint32_t payload_crc = 0;
  if (chameleon != nullptr) {
    // Native structure stream; checksum it with a second pass over the
    // just-written bytes (recovery-path cost, not the write hot path).
    if (!chameleon->SaveTo(fp)) return false;
    if (std::fflush(fp) != 0) return false;
    const long payload_end = std::ftell(fp);
    if (payload_end < 0 ||
        !CrcOfRange(fp, kHeaderSize, payload_end - kHeaderSize,
                    &payload_crc) ||
        std::fseek(fp, payload_end, SEEK_SET) != 0) {
      return false;
    }
  } else {
    std::vector<KeyValue> all;
    all.reserve(index.size());
    index.RangeScan(kMinKey, kMaxKey - 1, &all);
    if (all.size() != meta.count) return false;
    const size_t bytes = all.size() * sizeof(KeyValue);
    if (bytes > 0 && std::fwrite(all.data(), 1, bytes, fp) != bytes) {
      return false;
    }
    payload_crc = Crc32c(all.data(), bytes);
  }
  if (std::fwrite(&payload_crc, 4, 1, fp) != 1) return false;
  if (std::fflush(fp) != 0 || ::fsync(::fileno(fp)) != 0) return false;
  f.reset();  // close before rename

  return RenameDurably(tmp, path);
}

bool ReadSnapshot(KvIndex* index, const std::string& path,
                  SnapshotMeta* meta_out) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return false;
  std::FILE* fp = f.get();
  SnapshotMeta meta;
  if (!ReadHeader(fp, &meta)) return false;

  // Verify the payload checksum before handing anything to the index.
  if (std::fseek(fp, 0, SEEK_END) != 0) return false;
  const long file_size = std::ftell(fp);
  if (file_size < static_cast<long>(kHeaderSize + 4)) return false;
  const uint64_t payload_len = file_size - kHeaderSize - 4;
  uint32_t computed = 0, stored = 0;
  if (!CrcOfRange(fp, kHeaderSize, payload_len, &computed) ||
      std::fread(&stored, 4, 1, fp) != 1 || computed != stored) {
    return false;
  }
  if (std::fseek(fp, kHeaderSize, SEEK_SET) != 0) return false;

  if (meta.kind == SnapshotKind::kChameleonNative) {
    auto* chameleon = dynamic_cast<ChameleonIndex*>(index);
    if (chameleon == nullptr || !chameleon->LoadFrom(fp)) return false;
  } else {
    if (payload_len != meta.count * sizeof(KeyValue)) return false;
    std::vector<KeyValue> all(meta.count);
    if (meta.count > 0 &&
        std::fread(all.data(), sizeof(KeyValue), all.size(), fp) !=
            all.size()) {
      return false;
    }
    index->BulkLoad(all);
  }
  if (index->size() != meta.count) return false;
  if (meta_out != nullptr) *meta_out = meta;
  return true;
}

}  // namespace chameleon
