#include "src/storage/snapshot.h"

#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "src/util/crc32c.h"
#include "src/util/io.h"

namespace chameleon {
namespace {

constexpr uint32_t kMagic = 0x43534E50;  // "CSNP"
constexpr uint32_t kVersion = 1;

#pragma pack(push, 1)
struct Header {  // as on disk: packed, no padding
  uint32_t magic;
  uint32_t version;
  uint8_t kind;
  uint64_t count;
  uint64_t wal_seq;
  uint32_t crc;  // crc32c of the fields above
};
#pragma pack(pop)
constexpr size_t kHeaderSize = sizeof(Header);
static_assert(kHeaderSize == 29);

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Header, payload and payload crc into `path`'s temp file, fsynced,
/// then committed over `path` (CommitFile).
bool CommitSnapshot(const std::string& path, const SnapshotMeta& meta,
                    const void* payload, size_t len) {
  Header header{kMagic, kVersion, static_cast<uint8_t>(meta.kind),
                meta.count, meta.wal_seq, 0};
  header.crc = Crc32c(&header, offsetof(Header, crc));
  const uint32_t payload_crc = Crc32c(payload, len);
  return CommitFile(path, [&](const std::string& tmp) {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    std::FILE* fp = f.get();
    return fp != nullptr &&
           std::fwrite(&header, sizeof(header), 1, fp) == 1 &&
           (len == 0 || std::fwrite(payload, 1, len, fp) == len) &&
           std::fwrite(&payload_crc, 4, 1, fp) == 1 &&
           std::fflush(fp) == 0 && ::fsync(::fileno(fp)) == 0;
  });
}

/// Reads the whole snapshot at `path` into `*bytes` and checks both
/// checksums over those bytes; on success `*meta` holds the header and
/// `*payload` points into `*bytes`.
bool ReadVerified(const std::string& path, std::vector<uint8_t>* bytes,
                  SnapshotMeta* meta, std::span<uint8_t>* payload) {
  if (!ReadWholeFile(path, bytes) || bytes->size() < kHeaderSize + 4) {
    return false;
  }
  Header header;
  std::memcpy(&header, bytes->data(), kHeaderSize);
  if (header.crc != Crc32c(&header, offsetof(Header, crc)) ||
      header.magic != kMagic || header.version != kVersion ||
      header.kind > 1) {
    return false;
  }
  *meta = {static_cast<SnapshotKind>(header.kind), header.count,
           header.wal_seq};
  *payload = std::span<uint8_t>(bytes->data() + kHeaderSize,
                                bytes->size() - kHeaderSize - 4);
  uint32_t payload_crc = 0;
  std::memcpy(&payload_crc, bytes->data() + bytes->size() - 4, 4);
  return Crc32c(payload->data(), payload->size()) == payload_crc;
}

/// A kSortedPairs payload: `meta.count` raw KeyValue pairs.
bool DecodePairs(std::span<const uint8_t> payload, const SnapshotMeta& meta,
                 std::vector<KeyValue>* pairs) {
  if (meta.kind != SnapshotKind::kSortedPairs ||
      payload.size() != meta.count * sizeof(KeyValue)) {
    return false;
  }
  pairs->resize(meta.count);
  if (!payload.empty()) {
    std::memcpy(pairs->data(), payload.data(), payload.size());
  }
  return true;
}

}  // namespace

bool WritePairsSnapshot(std::span<const KeyValue> pairs,
                        const std::string& path, uint64_t wal_seq) {
  return CommitSnapshot(path, {SnapshotKind::kSortedPairs, pairs.size(),
                               wal_seq},
                        pairs.data(), pairs.size_bytes());
}

bool ReadPairsSnapshot(const std::string& path,
                       std::vector<KeyValue>* pairs) {
  std::vector<uint8_t> bytes;
  SnapshotMeta meta;
  std::span<uint8_t> payload;
  return ReadVerified(path, &bytes, &meta, &payload) &&
         DecodePairs(payload, meta, pairs);
}

bool WriteStreamSnapshot(const std::string& path, const SnapshotMeta& meta,
                         FunctionRef<bool(std::FILE*)> save) {
  // The payload is assembled in memory, like the sorted dump, so its
  // checksum needs no second pass over the file.
  char* image = nullptr;
  size_t len = 0;
  bool saved = false;
  if (std::FILE* stream = ::open_memstream(&image, &len)) {
    saved = save(stream);
    saved = std::fclose(stream) == 0 && saved;  // sets image and len
  }
  const bool ok = saved && CommitSnapshot(path, meta, image, len);
  std::free(image);
  return ok;
}

bool RestoreSnapshot(KvIndex* index, const std::string& path,
                     SnapshotMeta* meta, FunctionRef<bool(std::FILE*)> load) {
  std::vector<uint8_t> bytes;
  std::span<uint8_t> payload;
  if (!ReadVerified(path, &bytes, meta, &payload)) return false;
  if (meta->kind == SnapshotKind::kSortedPairs) {
    std::vector<KeyValue> all;
    if (!DecodePairs(payload, *meta, &all)) return false;
    index->BulkLoad(all);
  } else {
    FilePtr stream(::fmemopen(payload.data(), payload.size(), "r"));
    if (stream == nullptr || !load(stream.get())) return false;
  }
  return index->size() == meta->count;
}

bool KvIndex::Persist(const std::string& path, uint64_t wal_seq) const {
  std::vector<KeyValue> all;
  all.reserve(size());
  RangeScan(kMinKey, kMaxKey - 1, &all);
  return all.size() == size() && WritePairsSnapshot(all, path, wal_seq);
}

bool KvIndex::Restore(const std::string& path, SnapshotMeta* meta) {
  // Sorted pairs only: no load for a native payload.
  return RestoreSnapshot(this, path, meta,
                         [](std::FILE*) { return false; });
}

}  // namespace chameleon
