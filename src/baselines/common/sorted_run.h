#ifndef CHAMELEON_BASELINES_COMMON_SORTED_RUN_H_
#define CHAMELEON_BASELINES_COMMON_SORTED_RUN_H_

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/api/delta_overlay.h"
#include "src/baselines/btree/btree.h"

namespace chameleon {

/// The in-memory run of a static learned index that takes updates
/// through the shared delta overlay (api/delta_overlay.h): a sorted
/// vector the derived index models, with a B+Tree as the delta. The
/// overlay merges once the delta outgrows max(min_merge, run /
/// merge_divisor), and the derived index rebuilds its model over the
/// merged run.
class SortedRunIndex : public DeltaOverlayIndex {
 protected:
  SortedRunIndex(size_t min_merge, size_t merge_divisor)
      : DeltaOverlayIndex(std::make_unique<BPlusTree>()),
        min_merge_(min_merge),
        merge_divisor_(merge_divisor) {}

  /// The sorted run the model is built over.
  const std::vector<KeyValue>& run() const { return run_; }
  /// Bytes held by the run, the delta and the tombstones.
  size_t RunBytes() const {
    return run_.capacity() * sizeof(KeyValue) + OverlayBytes();
  }

 private:
  /// The run entry with `key`, located through the model, or nullptr.
  virtual const KeyValue* FindInRun(Key key) const = 0;
  /// Rebuilds the model over run() (after a bulk load or a merge).
  virtual void BuildModel() = 0;

  bool RunLookup(Key key, Value* value) const override {
    const KeyValue* kv = FindInRun(key);
    if (kv != nullptr && value != nullptr) *value = kv->value;
    return kv != nullptr;
  }
  bool ScanRun(Key lo, Key hi, bool /*merging*/,
               ChunkSink visit) const override {
    auto first = std::lower_bound(
        run_.begin(), run_.end(), lo,
        [](const KeyValue& kv, Key k) { return kv.key < k; });
    auto last = std::upper_bound(
        first, run_.end(), hi,
        [](Key k, const KeyValue& kv) { return k < kv.key; });
    visit(RunChunk(first, last));
    return true;
  }
  void WriteRun(size_t entries, RunSource source) override {
    next_run_.reserve(entries);
    source([&](RunChunk chunk) {
      next_run_.insert(next_run_.end(), chunk.begin(), chunk.end());
    });
  }
  void InstallRun() override {
    run_ = std::exchange(next_run_, {});
    BuildModel();
  }
  size_t RunEntries() const override { return run_.size(); }
  bool MergeDue() const override {
    return delta_entries() > std::max(min_merge_, run_.size() / merge_divisor_);
  }

  size_t min_merge_;
  size_t merge_divisor_;
  std::vector<KeyValue> run_;
  std::vector<KeyValue> next_run_;  // written, not yet installed
};

}  // namespace chameleon

#endif  // CHAMELEON_BASELINES_COMMON_SORTED_RUN_H_
