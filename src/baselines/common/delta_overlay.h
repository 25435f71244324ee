#ifndef CHAMELEON_BASELINES_COMMON_DELTA_OVERLAY_H_
#define CHAMELEON_BASELINES_COMMON_DELTA_OVERLAY_H_

#include <span>
#include <unordered_set>
#include <vector>

#include "src/api/kv_index.h"

namespace chameleon {

/// Out-of-place updates for a static learned index (the delta-buffer
/// strategy of XIndex and "Are Updatable Learned Indexes Ready?"): a
/// sorted run that the derived index models, a sorted delta that takes
/// every insert, and a set of tombstones for erased run keys. When the
/// delta outgrows max(min_merge, run / merge_divisor), the merge folds
/// delta and tombstones into a fresh run and the derived index rebuilds
/// its model over it.
///
/// Invariants (the Disk layer's, DESIGN.md §14): tombstones name only
/// run keys, and a re-insert of a tombstoned run key goes to the delta
/// while its tombstone stays until the merge drops both. So a lookup
/// checks the delta, then the tombstones, then the run, and size() is
/// run - tombstones + delta.
class DeltaOverlayIndex : public KvIndex {
 public:
  void BulkLoad(std::span<const KeyValue> data) override;
  bool Lookup(Key key, Value* value) const override;
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const override;
  size_t size() const override { return size_; }

 protected:
  DeltaOverlayIndex(size_t min_merge, size_t merge_divisor)
      : min_merge_(min_merge), merge_divisor_(merge_divisor) {}

  /// The sorted run the model is built over.
  const std::vector<KeyValue>& run() const { return run_; }
  /// Bytes held by the run, the delta and the tombstones.
  size_t OverlayBytes() const;

 private:
  /// The run entry with `key`, located through the model, or nullptr.
  virtual const KeyValue* FindInRun(Key key) const = 0;
  /// Rebuilds the model over run() (after a bulk load or a merge).
  virtual void BuildModel() = 0;

  void Merge();

  size_t min_merge_;
  size_t merge_divisor_;
  size_t size_ = 0;
  std::vector<KeyValue> run_;
  std::vector<KeyValue> delta_;
  std::unordered_set<Key> tombstones_;
};

}  // namespace chameleon

#endif  // CHAMELEON_BASELINES_COMMON_DELTA_OVERLAY_H_
