#ifndef CHAMELEON_STORAGE_DURABLE_INDEX_H_
#define CHAMELEON_STORAGE_DURABLE_INDEX_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/api/kv_index.h"
#include "src/storage/snapshot.h"
#include "src/storage/wal.h"
#include "src/util/function_ref.h"

namespace chameleon {

struct SpecNode;

struct DurableOptions {
  WalOptions wal;
  /// A write that finds at least this many WAL bytes appended since the
  /// last checkpoint runs one (0 = after every write).
  size_t checkpoint_wal_bytes = 1u << 20;
};

/// Durability adapter: wraps any KvIndex with a write-ahead log and
/// snapshot checkpointing so a crash loses no acknowledged write and a
/// ChameleonIndex restart skips the RL construction entirely.
///
/// Write path: Insert/Erase append a checksummed WAL record (fsynced
/// per FsyncPolicy) *before* applying the operation to the inner index
/// — an acknowledged op is always recoverable. Rejected ops (duplicate
/// insert, absent erase) are still logged; replay re-applies them and
/// the inner index rejects them identically, so recovery is
/// deterministic. Reads delegate untouched — the adapter adds zero
/// overhead to Lookup/LookupBatch/RangeScan.
///
/// Recovery: `Recover()` loads the newest valid snapshot in the
/// directory, replays every WAL segment the snapshot does not cover,
/// and reopens the log on a fresh segment (never appending into a
/// possibly-torn tail). Mid-log corruption fails recovery (see
/// wal.h); a torn final record is discarded — it can only be an
/// unacknowledged op under FsyncPolicy::kAlways.
///
/// Checkpointing: `Checkpoint()` rotates the WAL (so the snapshot
/// boundary is a segment boundary), saves the inner index atomically
/// (temp + rename) through its persistence hook (KvIndex::Persist),
/// deletes obsolete WAL segments and older snapshots. The write path
/// runs it: a write that finds the WAL grown by `checkpoint_wal_bytes`
/// since the last attempt checkpoints after its own log-then-apply
/// pair, outside its shared hold, and the threshold is checked again
/// under the exclusive hold, so writers that crossed it together
/// checkpoint once. Recovery thus replays under one threshold of log,
/// and the WAL stays within one threshold plus one segment. A failed
/// checkpoint keeps the whole WAL, does not fail the write that
/// triggered it, and is retried one threshold later.
///
/// Thread model: the adapter follows the inner index's write contract.
/// By default that is single-writer — at most one thread in
/// Insert/Erase. When the inner index supports concurrent writes
/// (SupportsConcurrentWrites(), enabled via EnableConcurrentWrites();
/// the inner index is the adapter's one child, so both pass through),
/// multiple threads may Insert/Erase concurrently: each writer holds
/// write_mu_ *shared* only — WAL appends interleave through the log's
/// own append mutex (exercising group commit under real contention)
/// and applies land under the inner index's per-interval writer locks.
/// There is no global write mutex on the hot path. Maintenance
/// (BulkLoad/Recover/Checkpoint/SimulateCrash) takes write_mu_
/// exclusively — the pause/drain point that keeps a snapshot's WAL
/// boundary consistent: it waits out every in-flight log-then-apply
/// pair, so no op can be logged before the boundary but applied after
/// the snapshot. Readers are never blocked, and the Chameleon native
/// save path pauses/drains the retraining thread internally
/// (ChameleonIndex::SaveTo), so `Durable` composes with a live
/// retrainer and with `Sharded<N>` inners.
///
/// Concurrent-writer caveat: two racing writers of the *same key* may
/// commit to the WAL in the opposite order of their inner-index
/// applies, making replay-after-crash order-sensitive. Callers needing
/// a deterministic recovered state give each writer thread a disjoint
/// key set (the workload driver partitions by key ownership); per-key
/// WAL order then matches per-key apply order exactly.
class DurableIndex final : public KvIndex {
 public:
  /// `dir` is this index's private durability directory (created if
  /// missing; BulkLoad wipes stale wal/snapshot files inside it).
  DurableIndex(std::unique_ptr<KvIndex> inner, std::string dir,
               DurableOptions options = {});

  DurableIndex(const DurableIndex&) = delete;
  DurableIndex& operator=(const DurableIndex&) = delete;

  /// Builds the inner index and establishes the durable baseline: a
  /// fresh WAL plus an initial snapshot. Throws std::runtime_error,
  /// naming the directory or the snapshot, when either cannot be
  /// written: the caller must not take writes that Recover() would lose.
  void BulkLoad(std::span<const KeyValue> data) override;
  bool Lookup(Key key, Value* value) const override {
    return inner_->Lookup(key, value);
  }
  void LookupBatch(std::span<const Key> keys, Value* values,
                   bool* found) const override {
    inner_->LookupBatch(keys, values, found);
  }
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const override {
    return inner_->RangeScan(lo, hi, out);
  }
  size_t size() const override { return inner_->size(); }
  size_t SizeBytes() const override { return inner_->SizeBytes(); }
  IndexStats Stats() const override { return inner_->Stats(); }
  std::string_view Name() const override { return name_; }
  std::span<const std::unique_ptr<KvIndex>> Children() const override {
    return {&inner_, 1};
  }

  // --- Durability operations ------------------------------------------------

  /// Restores the index from the directory: newest valid snapshot + WAL
  /// replay. Call on a freshly constructed DurableIndex instead of
  /// BulkLoad. Returns false when no valid snapshot exists or the WAL
  /// is corrupt mid-log.
  bool Recover() override;

  /// Synchronous checkpoint: rotate WAL, snapshot atomically, truncate
  /// obsolete segments and older snapshots. Blocks writers until the
  /// snapshot is written; readers proceed throughout.
  bool Checkpoint();

  /// Simulates a crash for tests/bench: discards WAL bytes after the
  /// last fsync barrier (see Wal::SimulateCrash). The object must not
  /// be used afterwards — recover into a fresh DurableIndex on the same
  /// directory.
  void SimulateCrash();

  KvIndex& inner() { return *inner_; }
  const KvIndex& inner() const { return *inner_; }
  Wal& wal() { return wal_; }
  const std::string& dir() const { return dir_; }

  /// WAL records replayed by the last successful Recover().
  size_t last_recovery_replayed() const { return last_recovery_replayed_; }
  /// Wall-clock duration of the last successful Recover().
  double last_recovery_ms() const { return last_recovery_ms_; }

 private:
  /// Insert/Erase: log `record`, `apply`, then CheckpointIfDue unlocked.
  bool LogThenApply(uint8_t type, std::span<const uint8_t> record,
                    FunctionRef<bool()> apply);
  void CheckpointIfDue();
  bool CheckpointLocked();
  std::string SnapshotPath(uint64_t wal_seq) const;
  /// Snapshot files present in the directory, by wal_seq ascending.
  std::vector<uint64_t> ListSnapshots() const;

  std::unique_ptr<KvIndex> inner_;
  std::string dir_;
  std::string name_;
  DurableOptions options_;
  Wal wal_;

  /// Writers hold this *shared* (concurrent log-then-apply);
  /// maintenance — BulkLoad, Recover, Checkpoint, SimulateCrash — holds
  /// it *exclusive* as the pause/drain barrier. With a single writer
  /// this degenerates to the old mutex behavior.
  mutable std::shared_mutex write_mu_;
  /// WAL bytes appended at the last checkpoint attempt, BulkLoad or
  /// Recover: written under the exclusive hold, read without it.
  std::atomic<uint64_t> wal_bytes_at_checkpoint_{0};
  size_t last_recovery_replayed_ = 0;
  double last_recovery_ms_ = 0.0;
};

/// Registers the "Durable(...)" decorator in the index-spec registry.
/// Called by EnsureBuiltinIndexDecorators(); not for direct use.
void RegisterDurableDecorator();

/// Where the Durable layers of a spec chain keep their files: the
/// directory (first positional argument) of every Durable element from
/// `spec` inward, outermost first, before any build-context suffix. An
/// outer Sharded roots its shard stacks below these (<dir>/shard-<i>).
std::vector<std::string> DurableDirsOf(const SpecNode& spec);

/// Simulates a crash on every durable layer in an index stack built
/// from a spec: a DurableIndex crashes directly, any other layer
/// recurses into its Children() (so leaves and Disk are skipped).
/// Returns true when at least one durable layer was crashed (false
/// means the stack is volatile and there is nothing to recover). Like
/// SimulateCrash, the stack must not be used afterwards — build a fresh
/// stack from the same spec and Recover() it.
bool SimulateCrashStack(KvIndex* index);

}  // namespace chameleon

#endif  // CHAMELEON_STORAGE_DURABLE_INDEX_H_
