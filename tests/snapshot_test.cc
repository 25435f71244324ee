// Tests for the checksummed snapshot format (storage/snapshot.h):
// generic sorted-pair round trips, the Chameleon native fast path, and
// corruption rejection.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/index_factory.h"
#include "src/core/chameleon_index.h"
#include "src/data/dataset.h"
#include "src/storage/snapshot.h"
#include "src/storage/wal.h"

namespace chameleon {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// Flips one byte at `offset` in `path`.
void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, offset, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, offset, SEEK_SET);
  std::fputc(c ^ 0x10, f);
  std::fclose(f);
}

TEST(SnapshotTest, GenericRoundTripRestoresEveryKey) {
  const std::string path = TempPath("snap_generic.snap");
  const std::vector<KeyValue> data =
      ToKeyValues(GenerateDataset(DatasetKind::kFace, 20'000, 11));
  std::unique_ptr<KvIndex> source = MakeIndex("B+Tree");
  source->BulkLoad(data);
  ASSERT_TRUE(WriteSnapshot(*source, path, /*wal_seq=*/42));

  // A sorted-pair snapshot restores into *any* implementation, not just
  // the one that produced it.
  for (const char* target : {"B+Tree", "PGM", "Chameleon"}) {
    std::unique_ptr<KvIndex> restored = MakeIndex(target);
    SnapshotMeta m;
    ASSERT_TRUE(ReadSnapshot(restored.get(), path, &m)) << target;
    EXPECT_EQ(m.kind, SnapshotKind::kSortedPairs);
    EXPECT_EQ(m.count, data.size());
    EXPECT_EQ(m.wal_seq, 42u);
    ASSERT_EQ(restored->size(), data.size()) << target;
    for (size_t i = 0; i < data.size(); i += 97) {
      Value v = 0;
      ASSERT_TRUE(restored->Lookup(data[i].key, &v)) << target << " i=" << i;
      EXPECT_EQ(v, data[i].value);
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, ChameleonUsesNativeFastPathWithIdenticalStats) {
  const std::string path = TempPath("snap_native.snap");
  const std::vector<KeyValue> data =
      ToKeyValues(GenerateDataset(DatasetKind::kLogn, 25'000, 3));
  ChameleonIndex original;
  original.BulkLoad(data);
  const IndexStats before = original.Stats();
  ASSERT_TRUE(WriteSnapshot(original, path, /*wal_seq=*/7));

  // The native stream restores the exact structure — no DARE / TSMDP
  // re-run, so node counts and heights are slot-identical.
  ChameleonIndex restored;
  SnapshotMeta meta;
  ASSERT_TRUE(ReadSnapshot(&restored, path, &meta));
  EXPECT_EQ(meta.kind, SnapshotKind::kChameleonNative);
  EXPECT_EQ(meta.count, data.size());
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.num_units(), original.num_units());
  EXPECT_EQ(restored.frame_levels(), original.frame_levels());
  const IndexStats after = restored.Stats();
  EXPECT_EQ(after.num_nodes, before.num_nodes);
  EXPECT_EQ(after.max_height, before.max_height);
  EXPECT_DOUBLE_EQ(after.max_error, before.max_error);

  // A native snapshot cannot restore into a non-Chameleon index.
  std::unique_ptr<KvIndex> wrong = MakeIndex("B+Tree");
  EXPECT_FALSE(ReadSnapshot(wrong.get(), path));
  std::remove(path.c_str());
}

TEST(SnapshotTest, NativePathWorksThroughTheKvIndexInterface) {
  // WriteSnapshot must detect ChameleonIndex behind a KvIndex pointer
  // (the shape DurableIndex hands it).
  const std::string path = TempPath("snap_native_iface.snap");
  std::unique_ptr<KvIndex> index = MakeIndex("Chameleon");
  index->BulkLoad(ToKeyValues(GenerateDataset(DatasetKind::kUden, 8'000, 5)));
  ASSERT_TRUE(WriteSnapshot(*index, path, 0));
  std::unique_ptr<KvIndex> restored = MakeIndex("Chameleon");
  SnapshotMeta meta;
  ASSERT_TRUE(ReadSnapshot(restored.get(), path, &meta));
  EXPECT_EQ(meta.kind, SnapshotKind::kChameleonNative);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsCorruptedHeaderAndPayload) {
  const std::string path = TempPath("snap_corrupt.snap");
  const std::vector<KeyValue> data =
      ToKeyValues(GenerateDataset(DatasetKind::kUden, 5'000, 9));
  std::unique_ptr<KvIndex> source = MakeIndex("B+Tree");
  source->BulkLoad(data);
  ASSERT_TRUE(WriteSnapshot(*source, path, 0));

  // Flip a header byte (count field, offset 9..16).
  FlipByteAt(path, 10);
  std::unique_ptr<KvIndex> restored = MakeIndex("B+Tree");
  EXPECT_FALSE(ReadSnapshot(restored.get(), path));
  FlipByteAt(path, 10);  // restore

  // Header now valid again; flip a payload byte instead.
  FlipByteAt(path, 29 + 100);
  restored = MakeIndex("B+Tree");
  EXPECT_FALSE(ReadSnapshot(restored.get(), path))
      << "payload checksum must catch the flip";
  FlipByteAt(path, 29 + 100);

  // And fully valid once both flips are undone.
  restored = MakeIndex("B+Tree");
  EXPECT_TRUE(ReadSnapshot(restored.get(), path));
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsTruncatedFileAndGarbage) {
  ChameleonIndex index;
  EXPECT_FALSE(ReadSnapshot(&index, "/nonexistent/nope.snap"));

  const std::string path = TempPath("snap_trunc.snap");
  std::unique_ptr<KvIndex> source = MakeIndex("B+Tree");
  source->BulkLoad(ToKeyValues(GenerateDataset(DatasetKind::kFace, 4'000, 2)));
  ASSERT_TRUE(WriteSnapshot(*source, path, 0));
  const uint64_t size = std::filesystem::file_size(path);
  ASSERT_TRUE(Wal::TruncateFileTo(path, size / 2));
  std::unique_ptr<KvIndex> restored = MakeIndex("B+Tree");
  EXPECT_FALSE(ReadSnapshot(restored.get(), path));
  std::remove(path.c_str());
}

TEST(SnapshotTest, WriteIsAtomicNoTempFileSurvives) {
  const std::string dir = TempPath("snap_atomic_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/s.snap";
  std::unique_ptr<KvIndex> source = MakeIndex("B+Tree");
  source->BulkLoad(ToKeyValues(GenerateDataset(DatasetKind::kOsmc, 3'000, 4)));
  ASSERT_TRUE(WriteSnapshot(*source, path, 0));
  ASSERT_TRUE(WriteSnapshot(*source, path, 1));  // overwrite in place

  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".snap") << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 1u);
  std::unique_ptr<KvIndex> restored = MakeIndex("B+Tree");
  SnapshotMeta meta;
  ASSERT_TRUE(ReadSnapshot(restored.get(), path, &meta));
  EXPECT_EQ(meta.wal_seq, 1u) << "second write must have replaced the first";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace chameleon
