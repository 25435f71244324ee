#include "src/baselines/dili/dili.h"

#include <algorithm>

#include "src/baselines/common/shrinking_cone.h"

namespace chameleon {

DiliIndex::DiliIndex() : DiliIndex(Config{}) {}

DiliIndex::DiliIndex(Config config) : config_(config) {
  children_.push_back(std::make_unique<LippIndex>());
}

void DiliIndex::BulkLoad(std::span<const KeyValue> data) {
  boundaries_.clear();
  children_.clear();
  size_ = data.size();
  if (data.empty()) {
    children_.push_back(std::make_unique<LippIndex>());
    return;
  }

  // BU phase: the start index of each shrinking-cone segment.
  std::vector<size_t> seg_starts;
  ShrinkingConeSegments(
      data.size(), [&](size_t i) { return data[i].key; }, config_.epsilon,
      [&](size_t start, double) { seg_starts.push_back(start); });
  // TD phase: group segments into children with balanced segment counts.
  const size_t num_children = std::min(
      config_.max_fanout,
      std::max<size_t>(1, (seg_starts.size() + config_.segments_per_child - 1) /
                              config_.segments_per_child));
  const size_t segs_per_child =
      (seg_starts.size() + num_children - 1) / num_children;

  size_t seg = 0;
  while (seg < seg_starts.size()) {
    const size_t first = seg_starts[seg];
    const size_t next_seg = std::min(seg_starts.size(), seg + segs_per_child);
    const size_t last =
        next_seg < seg_starts.size() ? seg_starts[next_seg] : data.size();
    auto child = std::make_unique<LippIndex>();
    child->BulkLoad(data.subspan(first, last - first));
    if (!children_.empty()) boundaries_.push_back(data[first].key);
    children_.push_back(std::move(child));
    seg = next_seg;
  }
}

size_t DiliIndex::ChildFor(Key key) const {
  return std::upper_bound(boundaries_.begin(), boundaries_.end(), key) -
         boundaries_.begin();
}

bool DiliIndex::Lookup(Key key, Value* value) const {
  return children_[ChildFor(key)]->Lookup(key, value);
}

bool DiliIndex::Insert(Key key, Value value) {
  if (!children_[ChildFor(key)]->Insert(key, value)) return false;
  ++size_;
  return true;
}

bool DiliIndex::Erase(Key key) {
  if (!children_[ChildFor(key)]->Erase(key)) return false;
  --size_;
  return true;
}

size_t DiliIndex::RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const {
  size_t count = 0;
  const size_t first = ChildFor(lo);
  const size_t last = ChildFor(hi);
  for (size_t c = first; c <= last && c < children_.size(); ++c) {
    count += children_[c]->RangeScan(lo, hi, out);
  }
  return count;
}

size_t DiliIndex::SizeBytes() const {
  size_t bytes = sizeof(DiliIndex) + boundaries_.capacity() * sizeof(Key) +
                 children_.capacity() * sizeof(void*);
  for (const auto& c : children_) bytes += c->SizeBytes();
  return bytes;
}

IndexStats DiliIndex::Stats() const {
  // The TD root sits one level above its exact-position LIPP children.
  IndexStatsTally tally;
  tally.AddNodes();
  for (const auto& c : children_) tally.AddSubIndex(c->Stats(), c->size(), 1);
  return tally.Finish();
}

}  // namespace chameleon
