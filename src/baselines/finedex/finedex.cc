#include "src/baselines/finedex/finedex.h"

#include <algorithm>
#include <cmath>

#include "src/baselines/common/line_fit.h"

namespace chameleon {

FinedexIndex::FinedexIndex() : FinedexIndex(Config{}) {}

FinedexIndex::FinedexIndex(Config config) : config_(config) {
  groups_.resize(1);
  groups_[0].Train();
}

void FinedexIndex::Group::Train() {
  const size_t n = run.size();
  slope = 0.0;
  max_error = 0;
  if (n == 0) {
    first_key = 0;
    return;
  }
  first_key = run.front().key;
  slope = FitLine(run, first_key, 1.0).slope;
  // Exact error bound over the run.
  for (size_t i = 0; i < n; ++i) {
    const double pred = slope * (static_cast<double>(run[i].key) -
                                 static_cast<double>(first_key));
    const double err = std::abs(pred - static_cast<double>(i));
    if (err > static_cast<double>(max_error)) {
      max_error = static_cast<size_t>(err) + 1;
    }
  }
}

const KeyValue* FinedexIndex::Group::FindInRun(Key key) const {
  if (run.empty()) return nullptr;
  const double pred =
      slope * (static_cast<double>(key) - static_cast<double>(first_key));
  size_t hint = pred <= 0.0 ? 0 : static_cast<size_t>(pred);
  if (hint >= run.size()) hint = run.size() - 1;
  const size_t lo = hint > max_error ? hint - max_error : 0;
  const size_t hi = std::min(run.size(), hint + max_error + 2);
  auto it = std::lower_bound(run.begin() + lo, run.begin() + hi, key,
                             [](const KeyValue& kv, Key k) { return kv.key < k; });
  if (it != run.begin() + hi && it->key == key) return &*it;
  return nullptr;
}

void FinedexIndex::BulkLoad(std::span<const KeyValue> data) {
  groups_ = std::vector<Group>();  // clear() would keep the buffer
  size_ = data.size();
  total_retrains_ = 0;
  if (data.empty()) {
    groups_.resize(1);
    groups_[0].Train();
    return;
  }
  for (size_t i = 0; i < data.size(); i += config_.group_size) {
    Group g;
    const size_t end = std::min(data.size(), i + config_.group_size);
    g.run.assign(data.begin() + i, data.begin() + end);
    g.Train();
    groups_.push_back(std::move(g));
  }
}

size_t FinedexIndex::GroupFor(Key key) const {
  // First group with first_key > key, minus one.
  size_t lo = 0, hi = groups_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (groups_[mid].first_key <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0 : lo - 1;
}

bool FinedexIndex::Lookup(Key key, Value* value) const {
  const Group& g = groups_[GroupFor(key)];
  if (const KeyValue* kv = g.FindInRun(key)) {
    if (value != nullptr) *value = kv->value;
    return true;
  }
  // Level-bin scan.
  auto it = std::lower_bound(g.bin.begin(), g.bin.end(), key,
                             [](const KeyValue& kv, Key k) { return kv.key < k; });
  if (it != g.bin.end() && it->key == key) {
    if (value != nullptr) *value = it->value;
    return true;
  }
  return false;
}

void FinedexIndex::MergeGroup(size_t gi) {
  ++total_retrains_;
  Group& g = groups_[gi];
  std::vector<KeyValue> merged;
  merged.reserve(g.run.size() + g.bin.size());
  std::merge(g.run.begin(), g.run.end(), g.bin.begin(), g.bin.end(),
             std::back_inserter(merged));
  g.bin.clear();
  if (merged.size() <= config_.group_size * 2) {
    g.run = std::move(merged);
    g.Train();
    return;
  }
  // Split the group in two (local restructuring only).
  const size_t half = merged.size() / 2;
  Group right;
  right.run.assign(merged.begin() + half, merged.end());
  right.Train();
  g.run.assign(merged.begin(), merged.begin() + half);
  g.Train();
  groups_.insert(groups_.begin() + gi + 1, std::move(right));
}

bool FinedexIndex::Insert(Key key, Value value) {
  if (Lookup(key, nullptr)) return false;
  Group& g = groups_[GroupFor(key)];
  auto it = std::lower_bound(g.bin.begin(), g.bin.end(), key,
                             [](const KeyValue& kv, Key k) { return kv.key < k; });
  g.bin.insert(it, {key, value});
  ++size_;
  if (g.bin.size() >= config_.bin_capacity) MergeGroup(GroupFor(key));
  return true;
}

bool FinedexIndex::Erase(Key key) {
  Group& g = groups_[GroupFor(key)];
  auto bit = std::lower_bound(g.bin.begin(), g.bin.end(), key,
                              [](const KeyValue& kv, Key k) { return kv.key < k; });
  if (bit != g.bin.end() && bit->key == key) {
    g.bin.erase(bit);
    --size_;
    return true;
  }
  if (const KeyValue* kv = g.FindInRun(key)) {
    const size_t pos = kv - g.run.data();
    g.run.erase(g.run.begin() + pos);
    // Removing shifts ranks down by one past `pos`; the trained error
    // bound can be off by one now, so widen it instead of retraining.
    ++g.max_error;
    --size_;
    return true;
  }
  return false;
}

size_t FinedexIndex::RangeScan(Key lo, Key hi,
                               std::vector<KeyValue>* out) const {
  size_t count = 0;
  for (size_t gi = GroupFor(lo); gi < groups_.size(); ++gi) {
    const Group& g = groups_[gi];
    if (!g.run.empty() && g.run.front().key > hi &&
        (g.bin.empty() || g.bin.front().key > hi)) {
      break;
    }
    // Merge run and bin on the fly.
    auto ri = std::lower_bound(g.run.begin(), g.run.end(), lo,
                               [](const KeyValue& kv, Key k) { return kv.key < k; });
    auto bi = std::lower_bound(g.bin.begin(), g.bin.end(), lo,
                               [](const KeyValue& kv, Key k) { return kv.key < k; });
    while (true) {
      const bool r_ok = ri != g.run.end() && ri->key <= hi;
      const bool b_ok = bi != g.bin.end() && bi->key <= hi;
      if (!r_ok && !b_ok) break;
      if (r_ok && (!b_ok || ri->key <= bi->key)) {
        out->push_back(*ri++);
      } else {
        out->push_back(*bi++);
      }
      ++count;
    }
  }
  return count;
}

size_t FinedexIndex::SizeBytes() const {
  size_t bytes = sizeof(FinedexIndex) + groups_.capacity() * sizeof(Group);
  for (const Group& g : groups_) {
    bytes += g.run.capacity() * sizeof(KeyValue) +
             g.bin.capacity() * sizeof(KeyValue);
  }
  return bytes;
}

IndexStats FinedexIndex::Stats() const {
  IndexStats stats;
  stats.num_nodes = groups_.size() + 1;
  stats.max_height = 2;  // top layer + flat groups
  stats.avg_height = 2.0;
  double err_sum = 0.0;
  for (const Group& g : groups_) {
    stats.max_error =
        std::max(stats.max_error, static_cast<double>(g.max_error));
    err_sum += static_cast<double>(g.max_error) / 2.0;
  }
  stats.avg_error = groups_.empty() ? 0.0 : err_sum / groups_.size();
  return stats;
}

}  // namespace chameleon
