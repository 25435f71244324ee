#include "src/baselines/common/delta_overlay.h"

#include <algorithm>

namespace chameleon {
namespace {

std::vector<KeyValue>::const_iterator LowerBound(
    const std::vector<KeyValue>& v, Key key) {
  return std::lower_bound(v.begin(), v.end(), key,
                          [](const KeyValue& kv, Key k) { return kv.key < k; });
}

}  // namespace

void DeltaOverlayIndex::BulkLoad(std::span<const KeyValue> data) {
  run_.assign(data.begin(), data.end());
  delta_.clear();
  tombstones_.clear();
  size_ = run_.size();
  BuildModel();
}

bool DeltaOverlayIndex::Lookup(Key key, Value* value) const {
  auto it = LowerBound(delta_, key);
  if (it != delta_.end() && it->key == key) {
    if (value != nullptr) *value = it->value;
    return true;
  }
  if (tombstones_.contains(key)) return false;
  const KeyValue* kv = FindInRun(key);
  if (kv == nullptr) return false;
  if (value != nullptr) *value = kv->value;
  return true;
}

bool DeltaOverlayIndex::Insert(Key key, Value value) {
  if (Lookup(key, nullptr)) return false;
  delta_.insert(LowerBound(delta_, key), {key, value});
  ++size_;
  if (delta_.size() > std::max(min_merge_, run_.size() / merge_divisor_)) {
    Merge();
  }
  return true;
}

bool DeltaOverlayIndex::Erase(Key key) {
  auto it = LowerBound(delta_, key);
  if (it != delta_.end() && it->key == key) {
    delta_.erase(it);
    --size_;
    return true;
  }
  if (tombstones_.contains(key) || FindInRun(key) == nullptr) return false;
  tombstones_.insert(key);
  --size_;
  return true;
}

size_t DeltaOverlayIndex::RangeScan(Key lo, Key hi,
                                    std::vector<KeyValue>* out) const {
  // Merge the run (minus tombstones) with the delta. A tombstoned run
  // key that was re-inserted sorts before its delta entry and is
  // skipped, so each live key appears once.
  auto ri = LowerBound(run_, lo);
  auto di = LowerBound(delta_, lo);
  size_t count = 0;
  while (true) {
    const bool r_ok = ri != run_.end() && ri->key <= hi;
    const bool d_ok = di != delta_.end() && di->key <= hi;
    if (!r_ok && !d_ok) break;
    if (r_ok && (!d_ok || ri->key <= di->key)) {
      if (!tombstones_.contains(ri->key)) {
        out->push_back(*ri);
        ++count;
      }
      ++ri;
    } else {
      out->push_back(*di);
      ++count;
      ++di;
    }
  }
  return count;
}

size_t DeltaOverlayIndex::OverlayBytes() const {
  return (run_.capacity() + delta_.capacity()) * sizeof(KeyValue) +
         tombstones_.size() * sizeof(Key) * 2;
}

void DeltaOverlayIndex::Merge() {
  std::vector<KeyValue> merged;
  merged.reserve(run_.size() + delta_.size());
  size_t i = 0, j = 0;
  while (i < run_.size() || j < delta_.size()) {
    if (j >= delta_.size() ||
        (i < run_.size() && run_[i].key < delta_[j].key)) {
      if (!tombstones_.contains(run_[i].key)) merged.push_back(run_[i]);
      ++i;
    } else {
      merged.push_back(delta_[j]);
      ++j;
    }
  }
  run_ = std::move(merged);
  delta_.clear();
  tombstones_.clear();
  BuildModel();
}

}  // namespace chameleon
