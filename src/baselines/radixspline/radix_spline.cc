#include "src/baselines/radixspline/radix_spline.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace chameleon {

RadixSpline::RadixSpline(size_t epsilon, size_t radix_bits)
    : SortedRunIndex(/*min_merge=*/1024, /*merge_divisor=*/16),
      epsilon_(std::max<size_t>(1, epsilon)),
      radix_bits_(std::min<size_t>(24, std::max<size_t>(4, radix_bits))) {}

void RadixSpline::BuildModel() {
  BuildSpline();
  BuildRadixTable();
}

void RadixSpline::BuildSpline() {
  const std::vector<KeyValue>& data = run();
  spline_ = std::vector<SplinePoint>();  // clear() would keep the buffer
  const size_t n = data.size();
  if (n == 0) return;
  spline_.push_back({data.front().key, 0.0});
  if (n == 1) return;

  // Greedy corridor: extend the current spline segment while there is a
  // line from the anchor that keeps every point within +-epsilon. Knot
  // ranks are *fractional*: each knot lies exactly on the midpoint-slope
  // line of its segment's final corridor, so interpolating between
  // consecutive knots reproduces that line and the epsilon guarantee
  // holds for every data point (emitting the point's exact rank instead
  // would not — the chord to it can leave the corridor).
  const double eps = static_cast<double>(epsilon_);
  double anchor_key = static_cast<double>(data.front().key);
  double anchor_rank = 0.0;
  double slope_lo = 0.0;
  double slope_hi = std::numeric_limits<double>::infinity();
  double last_key = anchor_key;  // last point that fit the corridor
  double last_dx = 0.0;

  for (size_t i = 1; i < n; ++i) {
    const double key = static_cast<double>(data[i].key);
    const double dx = key - anchor_key;
    if (dx <= 0.0) continue;
    const double dy = static_cast<double>(i) - anchor_rank;
    const double lo = (dy - eps) / dx;
    const double hi = (dy + eps) / dx;
    const double new_lo = std::max(slope_lo, lo);
    const double new_hi = std::min(slope_hi, hi);
    if (new_lo <= new_hi) {
      slope_lo = new_lo;
      slope_hi = new_hi;
      last_key = key;
      last_dx = dx;
      continue;
    }
    // Close the segment: knot at the last fitting key, on the
    // midpoint-slope line.
    const double s = (slope_lo + slope_hi) / 2.0;
    const double knot_rank = anchor_rank + s * last_dx;
    spline_.push_back({static_cast<Key>(last_key), knot_rank});
    anchor_key = last_key;
    anchor_rank = knot_rank;
    slope_lo = 0.0;
    slope_hi = std::numeric_limits<double>::infinity();
    last_dx = 0.0;
    --i;  // re-process point i against the new anchor
  }
  // Final knot at the last key.
  if (last_dx > 0.0) {
    const double s = slope_hi == std::numeric_limits<double>::infinity()
                         ? 0.0
                         : (slope_lo + slope_hi) / 2.0;
    spline_.push_back({static_cast<Key>(last_key), anchor_rank + s * last_dx});
  }
  if (spline_.back().key != data.back().key) {
    spline_.push_back({data.back().key, static_cast<double>(n - 1)});
  }
}

void RadixSpline::BuildRadixTable() {
  const std::vector<KeyValue>& data = run();
  radix_table_ = std::vector<uint32_t>();
  if (data.empty()) return;
  min_key_ = data.front().key;
  const Key range = data.back().key - min_key_;
  int significant = 1;
  while (significant < 64 && (range >> significant) != 0) ++significant;
  shift_ = std::max(0, significant - static_cast<int>(radix_bits_));

  const size_t table_size = (static_cast<size_t>(range >> shift_)) + 2;
  radix_table_.assign(table_size + 1, 0);
  // radix_table_[p] = first spline index whose prefix >= p.
  size_t spline_idx = 0;
  for (size_t p = 0; p < table_size + 1; ++p) {
    while (spline_idx < spline_.size() &&
           ((spline_[spline_idx].key - min_key_) >> shift_) < p) {
      ++spline_idx;
    }
    radix_table_[p] = static_cast<uint32_t>(spline_idx);
  }
}

size_t RadixSpline::PredictRank(Key key) const {
  const size_t n = run().size();
  if (key <= min_key_) return 0;
  const size_t prefix = static_cast<size_t>((key - min_key_) >> shift_);
  size_t begin = 0, end = spline_.size();
  if (prefix + 1 < radix_table_.size()) {
    begin = radix_table_[prefix];
    end = radix_table_[prefix + 1] + 1;
    end = std::min(end, spline_.size());
  }
  // First spline point with key >= `key` inside [begin, end).
  auto it = std::lower_bound(
      spline_.begin() + begin, spline_.begin() + end, key,
      [](const SplinePoint& p, Key k) { return p.key < k; });
  if (it == spline_.end()) return n - 1;
  if (it == spline_.begin()) return 0;
  const SplinePoint& right = *it;
  const SplinePoint& left = *(it - 1);
  const double dx = static_cast<double>(right.key) -
                    static_cast<double>(left.key);
  if (dx <= 0.0) return static_cast<size_t>(left.rank);
  const double frac = (static_cast<double>(key) -
                       static_cast<double>(left.key)) / dx;
  const double pred = left.rank + frac * (right.rank - left.rank);
  if (pred <= 0.0) return 0;
  const size_t p = static_cast<size_t>(pred);
  return p >= n ? n - 1 : p;
}

const KeyValue* RadixSpline::FindInRun(Key key) const {
  const std::vector<KeyValue>& data = run();
  if (data.empty() || key < data.front().key || key > data.back().key) {
    return nullptr;
  }
  const size_t hint = PredictRank(key);
  const size_t lo = hint > epsilon_ ? hint - epsilon_ : 0;
  const size_t hi = std::min(data.size(), hint + epsilon_ + 2);
  auto it = std::lower_bound(
      data.begin() + lo, data.begin() + hi, key,
      [](const KeyValue& kv, Key k) { return kv.key < k; });
  if (it != data.begin() + hi && it->key == key) return &*it;
  return nullptr;
}

size_t RadixSpline::SizeBytes() const {
  return sizeof(RadixSpline) + RunBytes() +
         spline_.capacity() * sizeof(SplinePoint) +
         radix_table_.capacity() * sizeof(uint32_t);
}

IndexStats RadixSpline::Stats() const {
  IndexStats stats;
  // Radix table -> spline layer -> data: constant height.
  stats.max_height = 2;
  stats.avg_height = 2.0;
  stats.max_error = static_cast<double>(epsilon_);
  stats.avg_error = static_cast<double>(epsilon_) / 2.0;
  stats.num_nodes = spline_.size() + 1;
  return stats;
}

}  // namespace chameleon
