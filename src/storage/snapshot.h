#ifndef CHAMELEON_STORAGE_SNAPSHOT_H_
#define CHAMELEON_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "src/api/kv_index.h"
#include "src/util/function_ref.h"

namespace chameleon {

/// How a snapshot's payload encodes the index contents.
enum class SnapshotKind : uint8_t {
  /// The index's sorted contents as raw KeyValue pairs; restored by
  /// BulkLoad into any KvIndex implementation.
  kSortedPairs = 0,
  /// ChameleonIndex's native structure stream (core/serialize.cc):
  /// slot-exact frame/unit/EBH layout, so recovery skips the DARE and
  /// TSMDP construction entirely.
  kChameleonNative = 1,
};

struct SnapshotMeta {
  SnapshotKind kind = SnapshotKind::kSortedPairs;
  /// Live keys at snapshot time.
  uint64_t count = 0;
  /// First WAL segment NOT covered by this snapshot: recovery loads the
  /// snapshot and replays segments with sequence >= wal_seq.
  uint64_t wal_seq = 0;
};

/// Generic checksummed snapshot of any served index.
///
/// File layout (raw little-endian, like the WAL and core/serialize.cc):
///
///   [magic u32][version u32][kind u8][count u64][wal_seq u64]
///   [header_crc u32]      — crc32c of the five fields above
///   [payload bytes]       — per SnapshotKind
///   [payload_crc u32]     — crc32c of the payload
///
/// WriteSnapshot saves `index` through its persistence hook
/// (KvIndex::Persist): ChameleonIndex writes kChameleonNative (the fast
/// recovery path), every other implementation, including engine-layer
/// wrappers like ShardedIndex, inherits the sorted dump. The file goes
/// live through CommitFile (util/io.h), so a crash never leaves a
/// half-written snapshot under `path`.
///
/// Caller contract: writers must be quiesced (DurableIndex holds its
/// write mutex); a live Chameleon retraining thread is paused and
/// drained internally by the native save path (ChameleonIndex::SaveTo).
inline bool WriteSnapshot(const KvIndex& index, const std::string& path,
                          uint64_t wal_seq) {
  return index.Persist(path, wal_seq);
}

/// Restores a snapshot into `*index` (freshly constructed, never
/// bulk-loaded) through its persistence hook (KvIndex::Restore). The
/// file is read once and both checksums are checked over those bytes
/// before anything reaches the index. Native-kind snapshots require
/// `index` to be a ChameleonIndex; sorted-pair snapshots BulkLoad into
/// anything. Returns false on I/O error, bad magic/version, checksum
/// mismatch, or a kind/index mismatch. `*meta` (optional) receives the
/// header.
inline bool ReadSnapshot(KvIndex* index, const std::string& path,
                         SnapshotMeta* meta = nullptr) {
  SnapshotMeta header;
  return index->Restore(path, meta != nullptr ? meta : &header);
}

/// The snapshot frame, for a Persist/Restore override with a payload of
/// its own: WriteStreamSnapshot commits what `save` writes as the
/// payload under the header `meta`; RestoreSnapshot reads a snapshot as
/// ReadSnapshot does, sorted pairs by BulkLoad, other kinds by `load`.
bool WriteStreamSnapshot(const std::string& path, const SnapshotMeta& meta,
                         FunctionRef<bool(std::FILE*)> save);
bool RestoreSnapshot(KvIndex* index, const std::string& path,
                     SnapshotMeta* meta, FunctionRef<bool(std::FILE*)> load);

/// The kSortedPairs codec on its own, for files that hold pairs rather
/// than an index (the shard routing table). WriteSnapshot's sorted dump
/// is WritePairsSnapshot; ReadPairsSnapshot fails as ReadSnapshot does,
/// and on a native-kind file.
bool WritePairsSnapshot(std::span<const KeyValue> pairs,
                        const std::string& path, uint64_t wal_seq);
bool ReadPairsSnapshot(const std::string& path,
                       std::vector<KeyValue>* pairs);

}  // namespace chameleon

#endif  // CHAMELEON_STORAGE_SNAPSHOT_H_
