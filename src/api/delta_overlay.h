#ifndef CHAMELEON_API_DELTA_OVERLAY_H_
#define CHAMELEON_API_DELTA_OVERLAY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/api/kv_index.h"
#include "src/util/function_ref.h"

namespace chameleon {

/// Out-of-place updates over a sorted run (the delta-buffer strategy of
/// XIndex and "Are Updatable Learned Indexes Ready?"), written once for
/// RS and DIC (in-memory run, baselines/common/sorted_run.h) and Disk
/// (page file, tiered/tiered_index.h), which supply only the run.
///
/// The rule (DESIGN.md §2, §14): one delta index, kept for the whole
/// life of the overlay, takes every insert; erasing a run key sets a
/// tombstone. Tombstones name only run keys, and a re-insert of a
/// tombstoned key goes to the delta while the tombstone keeps the stale
/// run copy dead. So a lookup checks the delta, then the tombstones,
/// then the run, and size() is run - tombstones + delta. Merge() drains
/// the delta, merge-joins it with the run minus the tombstones, writes
/// the result as the new run, installs it, clears the tombstones and
/// resets the delta in place with `BulkLoad({})`. BulkLoad starts a new
/// lifetime the same way once the loaded run is live. A BulkLoad whose
/// run cannot be written throws std::runtime_error and leaves the
/// previous lifetime in place; a merge whose run cannot be written keeps
/// all. A delta reset that throws std::runtime_error (to BulkLoad's
/// caller; Merge prints it and returns false) leaves the new run live
/// with no tombstones and whatever the failed reset left in the delta.
/// Merges record the kMerge* phase spans and the tiered_merges /
/// tiered_merge_entries counters, inserts tiered_delta_inserts (§11).
class DeltaOverlayIndex : public KvIndex {
 public:
  /// An ascending piece of a run: a whole in-memory run or one page.
  using RunChunk = std::span<const KeyValue>;
  using ChunkSink = FunctionRef<void(RunChunk)>;
  /// Passes a run's pairs, ascending, to the sink in chunks; returns
  /// false when its input fails (a corrupt page of the old run).
  using RunSource = FunctionRef<bool(ChunkSink)>;

  void BulkLoad(std::span<const KeyValue> data) override;
  bool Lookup(Key key, Value* value) const override;
  void LookupBatch(std::span<const Key> keys, Value* values,
                   bool* found) const override;
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const override;
  size_t size() const override {
    return RunEntries() - tombstones_.size() + delta_->size();
  }

  /// Folds the delta and the tombstones into a new run (no-op when both
  /// are empty). False, not a throw, when the run cannot be written or
  /// the delta cannot be reset (std::runtime_error from either).
  bool Merge();

  const KvIndex& delta() const { return *delta_; }
  size_t delta_entries() const { return delta_->size(); }
  size_t tombstone_count() const { return tombstones_.size(); }
  uint64_t merges() const { return merges_; }

 protected:
  /// `delta` is the empty delta the overlay keeps for its whole life.
  explicit DeltaOverlayIndex(std::unique_ptr<KvIndex> delta)
      : delta_(std::move(delta)) {}

  /// Bytes held by the delta and the tombstones.
  size_t OverlayBytes() const {
    return delta_->SizeBytes() + tombstones_.size() * sizeof(Key);
  }

 private:
  // The run, supplied by the subclass.
  /// Point probe into the run (tombstones not applied).
  virtual bool RunLookup(Key key, Value* value) const = 0;
  /// Passes the run's pairs with keys in [lo, hi] to `visit`, ascending,
  /// one chunk at a time. `merging` marks Merge's full scan, which a
  /// paged run reads past its cache. Returns false when a read fails.
  virtual bool ScanRun(Key lo, Key hi, bool merging, ChunkSink visit) const = 0;
  /// Writes the `entries` pairs of `source` as the next run, not yet
  /// live. Throws std::runtime_error when the run cannot be written.
  virtual void WriteRun(size_t entries, RunSource source) = 0;
  /// Makes the run of the last WriteRun the live one.
  virtual void InstallRun() = 0;
  /// Pairs in the live run, tombstoned ones included.
  virtual size_t RunEntries() const = 0;
  /// The merge trigger, checked after every write that grows the
  /// delta or the tombstones.
  virtual bool MergeDue() const = 0;
  /// A write that changes which copy of run key `key` is live (a
  /// tombstone set, or a re-insert over one).
  virtual void RecordRunWrite(Key /*key*/) const {}

  std::unique_ptr<KvIndex> delta_;
  std::unordered_set<Key> tombstones_;
  uint64_t merges_ = 0;
};

}  // namespace chameleon

#endif  // CHAMELEON_API_DELTA_OVERLAY_H_
