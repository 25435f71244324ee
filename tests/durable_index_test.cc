// Tests for the durability adapter (storage/durable_index.h):
// kill-and-recover with zero acknowledged-write loss, the Chameleon
// native fast recovery path, checkpoint truncation, the factory spec,
// and checkpointer/retrainer/writer concurrency.

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
#include "src/storage/durable_index.h"
#include "src/util/io.h"
#include "src/util/random.h"
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

// The TSan target for the *legacy single-writer* mode (no
// EnableConcurrentWrites call), in two phases: phase 1 runs concurrent
// readers against the retrainer and the checkpointer's native-save
// pause/drain handshake; phase 2 runs the single foreground writer
// against both background threads. In this mode readers never overlap
// the writer, and writes stay on the zero-RMW fast path. The
// multi-writer mode — readers AND writers AND retrainer AND
// checkpointer all concurrent — is covered by MultiWriterTest and
// ConcurrentAppendersCrashLosesNoAcknowledgedWrite below.
TEST_F(DurableIndexTest, CheckpointerRetrainerWriterReadersCoexist) {
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kFace, 15'000, 17);
  DurableOptions options;
  options.wal.fsync = FsyncPolicy::kNone;  // keep the loop fast
  options.checkpoint_wal_bytes = 0;        // checkpoint on every tick
  auto index = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir_,
                                              options);
  index->BulkLoad(ToKeyValues(keys));
  auto* inner = dynamic_cast<ChameleonIndex*>(&index->inner());
  ASSERT_NE(inner, nullptr);
  // Seed some WAL traffic so phase-1 checkpoints have work to do.
  WorkloadGenerator gen(keys, 41);
  for (const Operation& op :
       Drain(*MakeOpSource(ParseWorkloadOrDie("insdel(u=0.5)"), gen, keys),
             500)) {
    if (op.type == OpType::kInsert) {
      ASSERT_TRUE(index->Insert(op.key, op.value));
    } else {
      ASSERT_TRUE(index->Erase(op.key));
    }
  }
  inner->StartRetrainer(std::chrono::milliseconds(2));
  index->StartCheckpointer(std::chrono::milliseconds(5));

  // Phase 1: concurrent readers + retrainer + checkpointer, no writer.
  {
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
      readers.emplace_back([&, t] {
        Rng rng(100 + t);
        while (!stop.load(std::memory_order_relaxed)) {
          (void)index->Lookup(keys[rng.Next() % keys.size()], nullptr);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.store(true);
    for (std::thread& t : readers) t.join();
  }

  // Phase 2: single foreground writer + retrainer + checkpointer.
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
  index->StopCheckpointer();
  inner->StopRetrainer();

  EXPECT_EQ(index->size(), gen.live().size());
  // Durable state survives: a final synchronous checkpoint + recovery
  // round-trips the exact post-workload size.
  ASSERT_TRUE(index->Checkpoint());
  index->SimulateCrash();
  auto recovered = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir_,
                                                  options);
  ASSERT_TRUE(recovered->Recover());
  EXPECT_EQ(recovered->size(), gen.live().size());
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
