// Tests for the durability adapter (storage/durable_index.h):
// kill-and-recover with zero acknowledged-write loss, the Chameleon
// native fast recovery path, checkpoint truncation, checkpoints run by
// the write path, the factory spec, and checkpoint/retrainer/writer
// concurrency.

#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/index_factory.h"
#include "src/core/chameleon_index.h"
#include "src/data/dataset.h"
#include "src/engine/sharded_index.h"
#include "src/storage/durable_index.h"
#include "src/util/io.h"
#include "src/util/random.h"
#include "src/workload/driver.h"
#include "src/workload/workload_spec.h"

namespace chameleon {
namespace {

/// Per-test scratch directory, wiped on construction and destruction.
class DurableIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/durable_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(DurableIndexTest, FactorySpecComposesWithShardedEngine) {
  std::unique_ptr<KvIndex> plain = MakeIndex("Durable(" + dir_ + "):Chameleon");
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(plain->Name(), "Durable:Chameleon");

  std::unique_ptr<KvIndex> sharded =
      MakeIndex("Durable(" + dir_ + "/s):Sharded4:Chameleon");
  ASSERT_NE(sharded, nullptr);
  // ShardedIndex names itself "<inner>/shards=<n>".
  EXPECT_EQ(sharded->Name(), "Durable:Chameleon/shards=4");
  const std::vector<KeyValue> data =
      ToKeyValues(GenerateDataset(DatasetKind::kFace, 5'000, 1));
  sharded->BulkLoad(data);
  Value v = 0;
  ASSERT_TRUE(sharded->Lookup(data[100].key, &v));
  EXPECT_EQ(v, data[100].value);

  // Malformed specs must not crash the factory.
  EXPECT_EQ(MakeIndex("Durable():Chameleon"), nullptr);
  EXPECT_EQ(MakeIndex("Durable(" + dir_ + "):NoSuchIndex"), nullptr);
  EXPECT_EQ(MakeIndex("Durable(" + dir_), nullptr);
}

TEST_F(DurableIndexTest, CrashLosesNoAcknowledgedWriteUnderFsyncAlways) {
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kLogn, 20'000, 7);
  const std::vector<KeyValue> data = ToKeyValues(keys);

  // Reference state: exactly the acknowledged operations.
  std::map<Key, Value> reference;
  for (const KeyValue& kv : data) reference[kv.key] = kv.value;

  DurableOptions options;
  options.wal.fsync = FsyncPolicy::kAlways;
  {
    auto index = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir_,
                                                options);
    index->BulkLoad(data);
    for (const Operation& op : MaterializeWorkload(
             ParseWorkloadOrDie("mixed(w=0.5)"), keys, 13, 4'000)) {
      switch (op.type) {
        case OpType::kLookup:
          ASSERT_TRUE(index->Lookup(op.key, nullptr));
          break;
        case OpType::kInsert:
          if (index->Insert(op.key, op.value)) reference[op.key] = op.value;
          break;
        case OpType::kErase:
          if (index->Erase(op.key)) reference.erase(op.key);
          break;
        case OpType::kUpdate:
        case OpType::kScan:
          FAIL() << "MixedReadWrite never emits " << OpTypeName(op.type);
      }
    }
    index->SimulateCrash();
  }

  auto recovered = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir_,
                                                  options);
  ASSERT_TRUE(recovered->Recover());
  EXPECT_GT(recovered->last_recovery_replayed(), 0u);
  ASSERT_EQ(recovered->size(), reference.size());
  for (const auto& [key, value] : reference) {
    Value v = 0;
    ASSERT_TRUE(recovered->Lookup(key, &v)) << "lost acked write " << key;
    EXPECT_EQ(v, value);
  }
  // Erased keys stay erased; the recovered index keeps serving writes.
  std::vector<KeyValue> all;
  EXPECT_EQ(recovered->RangeScan(0, kMaxKey - 1, &all), reference.size());
  ASSERT_TRUE(recovered->Insert(keys.back() + 999, 1));
  EXPECT_EQ(recovered->size(), reference.size() + 1);
}

TEST_F(DurableIndexTest, ChameleonRecoveryIsSlotExactWithoutRlRebuild) {
  const std::vector<KeyValue> data =
      ToKeyValues(GenerateDataset(DatasetKind::kOsmc, 30'000, 5));
  DurableOptions options;
  options.wal.fsync = FsyncPolicy::kAlways;
  IndexStats before;
  {
    auto index = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir_,
                                                options);
    index->BulkLoad(data);
    before = index->Stats();
    index->SimulateCrash();
  }

  auto recovered = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir_,
                                                  options);
  ASSERT_TRUE(recovered->Recover());
  // No WAL records were written after the initial snapshot, so recovery
  // is pure native load: zero replays and a structure identical down to
  // node counts — proof DARE / TSMDP construction did not re-run.
  EXPECT_EQ(recovered->last_recovery_replayed(), 0u);
  const IndexStats after = recovered->Stats();
  EXPECT_EQ(after.num_nodes, before.num_nodes);
  EXPECT_EQ(after.max_height, before.max_height);
  EXPECT_DOUBLE_EQ(after.max_error, before.max_error);
  EXPECT_EQ(recovered->size(), data.size());
}

TEST_F(DurableIndexTest, CheckpointTruncatesWalAndBoundsReplay) {
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kFace, 10'000, 3);
  DurableOptions options;
  options.wal.fsync = FsyncPolicy::kAlways;
  size_t ops_after_checkpoint = 0;
  {
    auto index = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir_,
                                                options);
    index->BulkLoad(ToKeyValues(keys));
    WorkloadGenerator gen(keys, 21);
    for (const Operation& op :
         Drain(*MakeOpSource(ParseWorkloadOrDie("insdel(u=0.7)"), gen, keys),
               1'000)) {
      if (op.type == OpType::kInsert) {
        index->Insert(op.key, op.value);
      } else {
        index->Erase(op.key);
      }
    }
    ASSERT_TRUE(index->Checkpoint());
    // Segments before the checkpoint boundary are gone.
    EXPECT_EQ(index->wal().ListSegments().size(), 1u);

    for (const Operation& op :
         Drain(*MakeOpSource(ParseWorkloadOrDie("insdel(u=1)"), gen, keys),
               200)) {
      if (index->Insert(op.key, op.value)) ++ops_after_checkpoint;
    }
    index->SimulateCrash();
  }

  auto recovered = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir_,
                                                  options);
  ASSERT_TRUE(recovered->Recover());
  // Only post-checkpoint records replay: the snapshot absorbed the rest.
  EXPECT_EQ(recovered->last_recovery_replayed(), ops_after_checkpoint);

  // Exactly one snapshot file remains (older ones were superseded).
  size_t snaps = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    snaps += entry.path().extension() == ".snap";
  }
  EXPECT_EQ(snaps, 1u);
}

TEST_F(DurableIndexTest, RecoverFailsCleanlyOnEmptyDirectory) {
  auto index = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir_);
  EXPECT_FALSE(index->Recover()) << "no snapshot to recover from";
}

TEST_F(DurableIndexTest, InitialSnapshotFailureReachesTheCaller) {
  // A directory holds the initial snapshot's temp name: BulkLoad must
  // throw rather than acknowledge writes that Recover() would lose.
  const std::string blocker = NumberedPath(dir_, "snap-", 0, ".snap") + ".tmp";
  std::filesystem::create_directories(blocker + "/keep");
  DurableOptions options;
  options.wal.fsync = FsyncPolicy::kAlways;
  DurableIndex index(MakeIndex("B+Tree"), dir_, options);
  const std::vector<KeyValue> data =
      ToKeyValues(GenerateDataset(DatasetKind::kFace, 1'000, 3));
  try {
    index.BulkLoad(data);
    ADD_FAILURE() << "BulkLoad did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("snap-000000.snap"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(DurableIndexTest, FailedWalAppendIsNotApplied) {
  const std::vector<KeyValue> data =
      ToKeyValues(GenerateDataset(DatasetKind::kUden, 5'000, 9));
  DurableOptions options;
  options.wal.fsync = FsyncPolicy::kAlways;
  auto index = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir_,
                                              options);
  index->BulkLoad(data);

  const Key fresh = data.back().key + 1'000;
  index->wal().InjectFsyncFailure(1);
  EXPECT_FALSE(index->Insert(fresh, 42)) << "unlogged op must not ack";
  EXPECT_FALSE(index->Lookup(fresh, nullptr))
      << "unacknowledged op must not be applied";
  // The fault is one-shot; the same op succeeds afterwards.
  EXPECT_TRUE(index->Insert(fresh, 42));
  Value v = 0;
  ASSERT_TRUE(index->Lookup(fresh, &v));
  EXPECT_EQ(v, 42u);
}

TEST_F(DurableIndexTest, GenericSnapshotPathRecoversBTree) {
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kLogn, 8'000, 2);
  DurableOptions options;
  options.wal.fsync = FsyncPolicy::kAlways;
  size_t expected_size = 0;
  {
    auto index = std::make_unique<DurableIndex>(MakeIndex("B+Tree"), dir_,
                                                options);
    index->BulkLoad(ToKeyValues(keys));
    for (const Operation& op : MaterializeWorkload(
             ParseWorkloadOrDie("insdel(u=0.5)"), keys, 31, 500)) {
      if (op.type == OpType::kInsert) {
        index->Insert(op.key, op.value);
      } else {
        index->Erase(op.key);
      }
    }
    expected_size = index->size();
    index->SimulateCrash();
  }
  auto recovered = std::make_unique<DurableIndex>(MakeIndex("B+Tree"), dir_,
                                                  options);
  ASSERT_TRUE(recovered->Recover());
  EXPECT_EQ(recovered->size(), expected_size);
}

/// Snapshot files left in `dir`, by WAL boundary ascending.
std::vector<uint64_t> Snapshots(const std::string& dir) {
  return ListNumbered(dir, "snap-", ".snap");
}

/// Every pair `index` holds, in key order.
std::vector<KeyValue> Contents(const KvIndex& index) {
  std::vector<KeyValue> all;
  index.RangeScan(0, kMaxKey - 1, &all);
  return all;
}

// WAL records: a 9-byte header, then the key (erase) or key and value
// (insert).
constexpr size_t kEraseRecordBytes = 17;
constexpr size_t kInsertRecordBytes = 25;

TEST_F(DurableIndexTest, WritesCheckpointOnTheirOwnAndBoundTheWal) {
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kLogn, 10'000, 3);
  DurableOptions options;
  options.wal.fsync = FsyncPolicy::kNone;
  options.checkpoint_wal_bytes = 4'000;
  std::map<Key, Value> reference;
  for (const KeyValue& kv : ToKeyValues(keys)) reference[kv.key] = kv.value;
  {
    auto index = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir_,
                                                options);
    index->BulkLoad(ToKeyValues(keys));
    for (const Operation& op : MaterializeWorkload(
             ParseWorkloadOrDie("insdel(u=0.7)"), keys, 5, 3'000)) {
      if (op.type == OpType::kInsert) {
        if (index->Insert(op.key, op.value)) reference[op.key] = op.value;
      } else if (index->Erase(op.key)) {
        reference.erase(op.key);
      }
    }
    // Each checkpoint rotates the WAL once, so the one snapshot left
    // names how many ran: one per threshold of log, give or take the
    // record that crossed it.
    const uint64_t appended = index->wal().appended_bytes();
    const std::vector<uint64_t> snaps = Snapshots(dir_);
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_GE(snaps[0],
              appended / (options.checkpoint_wal_bytes + kInsertRecordBytes));
    EXPECT_LE(snaps[0], appended / options.checkpoint_wal_bytes);
    EXPECT_EQ(index->wal().ListSegments().size(), 1u);
    index->wal().Sync();
    index->SimulateCrash();
  }

  auto recovered = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir_,
                                                  options);
  ASSERT_TRUE(recovered->Recover());
  // Only the tail since the last checkpoint replays: under one
  // threshold of log.
  EXPECT_LT(recovered->last_recovery_replayed() * kEraseRecordBytes,
            options.checkpoint_wal_bytes);
  std::vector<KeyValue> want;
  for (const auto& [key, value] : reference) want.push_back({key, value});
  EXPECT_TRUE(Contents(*recovered) == want);
}

TEST_F(DurableIndexTest, FourWritersCheckpointEveryShardOfAShardedStack) {
  // Sharded2:Durable(<dir>):Chameleon, built by hand so that each
  // shard's Durable layer takes a small checkpoint threshold.
  DurableOptions options;
  options.wal.fsync = FsyncPolicy::kNone;
  options.checkpoint_wal_bytes = 4'000;
  auto build = [&] {
    std::vector<std::unique_ptr<KvIndex>> shards;
    for (int i = 0; i < 2; ++i) {
      shards.push_back(std::make_unique<DurableIndex>(
          MakeIndex("Chameleon"), dir_ + "/shard-" + std::to_string(i),
          options));
    }
    return std::make_unique<ShardedIndex>(std::move(shards),
                                          dir_ + "/shards.meta");
  };
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kOsmc, 20'000, 37);
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("insdel(u=0.7)"), keys, 41, 8'000);
  std::unique_ptr<KvIndex> serial = MakeIndex("Chameleon");
  serial->BulkLoad(ToKeyValues(keys));
  for (const Operation& op : ops) {
    if (op.type == OpType::kInsert) {
      serial->Insert(op.key, op.value);
    } else {
      serial->Erase(op.key);
    }
  }
  const std::vector<KeyValue> want = Contents(*serial);

  {
    std::unique_ptr<ShardedIndex> index = build();
    index->BulkLoad(ToKeyValues(keys));
    ASSERT_TRUE(index->EnableConcurrentWrites());
    ReplayOptions ro;
    ro.threads = 4;
    EXPECT_EQ(Replay(index.get(), ops, ro).ops, ops.size());
    ASSERT_TRUE(Contents(*index) == want);
    for (const std::unique_ptr<KvIndex>& shard : index->Children()) {
      auto* durable = dynamic_cast<DurableIndex*>(shard.get());
      ASSERT_NE(durable, nullptr);
      // One checkpoint per threshold of the shard's own log, which each
      // of the 4 writers overshoots by at most the record it was
      // appending.
      const std::vector<uint64_t> snaps = Snapshots(durable->dir());
      ASSERT_EQ(snaps.size(), 1u) << durable->dir();
      EXPECT_GE(snaps[0], 1u) << durable->dir();
      EXPECT_GE(snaps[0], durable->wal().appended_bytes() /
                              (options.checkpoint_wal_bytes +
                               4 * kInsertRecordBytes));
      EXPECT_EQ(durable->wal().ListSegments().size(), 1u);
      durable->wal().Sync();
    }
    ASSERT_TRUE(SimulateCrashStack(index.get()));
  }

  std::unique_ptr<ShardedIndex> recovered = build();
  ASSERT_TRUE(recovered->Recover());
  EXPECT_TRUE(Contents(*recovered) == want);
}

TEST_F(DurableIndexTest, FailedCheckpointKeepsTheWriteAndWaitsAThreshold) {
  DurableOptions options;
  options.wal.fsync = FsyncPolicy::kAlways;
  options.checkpoint_wal_bytes = 40 * kInsertRecordBytes;
  DurableIndex index(MakeIndex("B+Tree"), dir_, options);
  const std::vector<KeyValue> data =
      ToKeyValues(GenerateDataset(DatasetKind::kFace, 1'000, 3));
  index.BulkLoad(data);
  // A directory holds the temp name of the first checkpoint's snapshot
  // (boundary segment 1), so that checkpoint cannot write it.
  std::filesystem::create_directories(
      NumberedPath(dir_, "snap-", 1, ".snap") + ".tmp/keep");
  Key next = data.back().key + 1;
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(index.Insert(next++, 7)) << i;
  // The 40th insert crossed the threshold: its checkpoint rotated the
  // WAL and failed, and the write stands.
  EXPECT_EQ(index.wal().ListSegments().size(), 2u);
  EXPECT_EQ(Snapshots(dir_), std::vector<uint64_t>{0});
  EXPECT_TRUE(index.Lookup(next - 1, nullptr));
  // No retry (which would rotate again) before another threshold...
  for (int i = 0; i < 39; ++i) {
    ASSERT_TRUE(index.Insert(next++, 7));
    ASSERT_EQ(index.wal().ListSegments().size(), 2u) << i;
  }
  // ...and the write that completes it checkpoints at boundary 2.
  ASSERT_TRUE(index.Insert(next++, 7));
  EXPECT_EQ(Snapshots(dir_), std::vector<uint64_t>{2});
  EXPECT_EQ(index.wal().ListSegments().size(), 1u);

  index.SimulateCrash();
  DurableIndex recovered(MakeIndex("B+Tree"), dir_, options);
  ASSERT_TRUE(recovered.Recover());
  EXPECT_EQ(recovered.last_recovery_replayed(), 0u);
  EXPECT_EQ(recovered.size(), data.size() + 80);
}

// Readers, a live retrainer and writer-triggered checkpoints together,
// in both write modes. Phase 1 has no writer: explicit checkpoints take
// the native save's pause/drain handshake against the readers and the
// retrainer alone. In phase 2 one writer checkpoints on its own every
// ~100 writes while the retrainer keeps running. In the default
// single-writer mode (no EnableConcurrentWrites, what every
// Durable(...):Chameleon spec runs) readers never overlap the writer,
// so they stop before phase 2; with concurrent writes enabled they keep
// reading through it.
void CheckpointsCoexistWithRetrainerAndReaders(const std::string& dir,
                                               bool concurrent_writes) {
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kFace, 15'000, 17);
  DurableOptions options;
  options.wal.fsync = FsyncPolicy::kNone;  // keep the loop fast
  options.checkpoint_wal_bytes = 2'000;
  auto index = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir,
                                              options);
  index->BulkLoad(ToKeyValues(keys));
  if (concurrent_writes) {
    ASSERT_TRUE(index->EnableConcurrentWrites());
  }
  auto* inner = dynamic_cast<ChameleonIndex*>(&index->inner());
  ASSERT_NE(inner, nullptr);
  inner->StartRetrainer(std::chrono::milliseconds(2));

  WorkloadGenerator gen(keys, 41);
  {
    // Stops and joins the readers on every way out of this scope, an
    // ASSERT's early return included.
    struct Readers {
      std::atomic<bool> stop{false};
      std::vector<std::thread> threads;
      ~Readers() { Join(); }
      void Join() {
        stop.store(true);
        for (std::thread& t : threads) t.join();
        threads.clear();
      }
    } readers;
    for (int t = 0; t < 2; ++t) {
      readers.threads.emplace_back([&, t] {
        Rng rng(100 + t);
        while (!readers.stop.load(std::memory_order_relaxed)) {
          (void)index->Lookup(keys[rng.Next() % keys.size()], nullptr);
        }
      });
    }

    // Phase 1: readers + retrainer + explicit checkpoints, no writer.
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(index->Checkpoint());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(Snapshots(dir), std::vector<uint64_t>{5});
    if (!concurrent_writes) readers.Join();

    // Phase 2: one writer, whose writes checkpoint, + retrainer (+
    // readers with concurrent writes).
    for (const Operation& op :
         Drain(*MakeOpSource(ParseWorkloadOrDie("mixed(w=0.5)"), gen, keys),
               6'000)) {
      switch (op.type) {
        case OpType::kLookup:
          ASSERT_TRUE(index->Lookup(op.key, nullptr));
          break;
        case OpType::kInsert:
          ASSERT_TRUE(index->Insert(op.key, op.value));
          break;
        case OpType::kErase:
          ASSERT_TRUE(index->Erase(op.key));
          break;
        case OpType::kUpdate:
        case OpType::kScan:
          FAIL() << "MixedReadWrite never emits " << OpTypeName(op.type);
      }
    }
  }
  inner->StopRetrainer();

  EXPECT_EQ(index->size(), gen.live().size());
  // ~3000 writes, ~65 KB of log: the writer checkpointed many times.
  const std::vector<uint64_t> snaps = Snapshots(dir);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_GE(snaps[0], 5u + 20u);
  // Durable state survives: crash and recovery round-trip the exact
  // post-workload contents.
  const std::vector<KeyValue> want = Contents(*index);
  index->wal().Sync();
  index->SimulateCrash();
  auto recovered = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir,
                                                  options);
  ASSERT_TRUE(recovered->Recover());
  EXPECT_TRUE(Contents(*recovered) == want);
}

TEST_F(DurableIndexTest, CheckpointerRetrainerWriterReadersCoexist) {
  CheckpointsCoexistWithRetrainerAndReaders(dir_, /*concurrent_writes=*/false);
}

TEST_F(DurableIndexTest,
       CheckpointerRetrainerWriterReadersCoexistWithConcurrentWrites) {
  CheckpointsCoexistWithRetrainerAndReaders(dir_, /*concurrent_writes=*/true);
}

// Kill-and-recover under concurrent appenders: multiple writer threads
// drive log-then-apply pairs through the shared maintenance gate while
// the main thread pulls the plug mid-flight. SimulateCrash drains
// in-flight pairs (exclusive gate) and truncates the WAL to the last
// fsync barrier; under fsync=always every acknowledged write sits
// behind that barrier, so recovery must reproduce exactly the acked
// set — no loss, and no phantom from a half-finished pair.
TEST_F(DurableIndexTest, ConcurrentAppendersCrashLosesNoAcknowledgedWrite) {
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kFace, 10'000, 23);
  DurableOptions options;
  options.wal.fsync = FsyncPolicy::kAlways;
  constexpr size_t kWriters = 2;

  std::map<Key, Value> reference;
  for (const KeyValue& kv : ToKeyValues(keys)) reference[kv.key] = kv.value;

  std::vector<std::map<Key, Value>> acked_inserts(kWriters);
  std::vector<std::vector<Key>> acked_erases(kWriters);
  {
    auto index = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir_,
                                                options);
    index->BulkLoad(ToKeyValues(keys));
    ASSERT_TRUE(index->SupportsConcurrentWrites());
    ASSERT_TRUE(index->EnableConcurrentWrites());

    // Each appender owns a disjoint key space: fresh inserts above the
    // loaded range (disjoint strides) plus erases of loaded keys with
    // key index % kWriters == t. Any Insert/Erase returning false can
    // only mean the WAL is gone — the crash point for that thread.
    std::vector<std::thread> writers;
    for (size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        const Key base = keys.back() + 1'000;
        size_t next_victim = w;  // loaded-key index; strided by kWriters
        for (size_t i = 0; i < 100'000; ++i) {
          if (i % 3 == 2 && next_victim < keys.size()) {
            const Key victim = keys[next_victim];
            next_victim += kWriters;  // each index visited exactly once
            if (!index->Erase(victim)) break;
            acked_erases[w].push_back(victim);
          } else {
            const Key fresh = base + static_cast<Key>(i * kWriters + w);
            if (!index->Insert(fresh, static_cast<Value>(w + 1))) break;
            acked_inserts[w][fresh] = static_cast<Value>(w + 1);
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    index->SimulateCrash();
    for (std::thread& t : writers) t.join();
  }

  for (size_t w = 0; w < kWriters; ++w) {
    for (const auto& [key, value] : acked_inserts[w]) reference[key] = value;
    for (const Key key : acked_erases[w]) reference.erase(key);
  }

  auto recovered = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir_,
                                                  options);
  ASSERT_TRUE(recovered->Recover());
  ASSERT_EQ(recovered->size(), reference.size());
  for (const auto& [key, value] : reference) {
    Value v = 0;
    ASSERT_TRUE(recovered->Lookup(key, &v)) << "lost acked write " << key;
    EXPECT_EQ(v, value) << key;
  }
}

}  // namespace
}  // namespace chameleon
