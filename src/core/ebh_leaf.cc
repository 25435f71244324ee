#include "src/core/ebh_leaf.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/obs/stats.h"
#include "src/obs/trace_journal.h"

namespace chameleon {

size_t EbhCapacityFor(size_t n, double tau, size_t min_capacity) {
  tau = std::clamp(tau, 1e-6, 1.0 - 1e-6);
  if (n <= 1) return min_capacity;
  const double c = static_cast<double>(n - 1) / (-std::log(1.0 - tau));
  const size_t needed = static_cast<size_t>(std::ceil(c));
  // The hash must also be able to hold all n keys with some slack.
  return std::max({min_capacity, needed, n + n / 8 + 1});
}

EbhLeaf::EbhLeaf(Key lk, Key uk, size_t expected_keys, double tau,
                 double alpha)
    : lk_(lk), uk_(uk), tau_(tau), alpha_(alpha) {
  const size_t cap = EbhCapacityFor(expected_keys, tau_);
  keys_.assign(cap, kEbhEmptySlot);
  values_.assign(cap, 0);
  RecomputeHashScale();
}

void EbhLeaf::RecomputeHashScale() {
  const double range = static_cast<double>(uk_) - static_cast<double>(lk_);
  hash_scale_ =
      range > 0.0 ? alpha_ * static_cast<double>(capacity()) / range : 0.0;
}

EbhLeaf EbhLeaf::WithExplicitCapacity(Key lk, Key uk, size_t capacity,
                                      double tau, double alpha) {
  EbhLeaf leaf(lk, uk, 0, tau, alpha);
  leaf.keys_.assign(capacity, kEbhEmptySlot);
  leaf.values_.assign(capacity, 0);
  leaf.fixed_capacity_ = true;
  leaf.RecomputeHashScale();
  return leaf;
}

size_t EbhLeaf::HashSlot(Key key) const {
  const size_t c = capacity();
  if (hash_scale_ <= 0.0) return 0;
  // Eq. (2): alpha * (c/(uk-lk) * (k-lk)) mod c, with alpha*c/(uk-lk)
  // precomputed. For in-range keys the value fits in uint64 and integer
  // modulo equals floor(fmod(t, c)) exactly (c is an integer); keys that
  // drifted outside [lk, uk) take the slower exact double path.
  const double t =
      hash_scale_ * (static_cast<double>(key) - static_cast<double>(lk_));
  if (t >= 0.0 && t < 9.2e18) {
    return static_cast<uint64_t>(t) % c;
  }
  const double h = std::fmod(t, static_cast<double>(c));
  size_t slot = static_cast<size_t>(h < 0.0 ? h + static_cast<double>(c) : h);
  return slot >= c ? c - 1 : slot;
}

size_t EbhLeaf::Place(Key key, Value value) {
  const size_t base = HashSlot(key);
  if (!occupied(base)) {
    keys_[base] = key;
    values_[base] = value;
    return 0;
  }
  // Nearest free slot: the kernel scans for the empty-slot sentinel in
  // vector-width blocks alternating outward from base, reproducing the
  // historical scalar order exactly — minimal displacement, upper side
  // on ties (simd::ProbeKernels::find_nearest contract).
  const size_t slot =
      kernels_->find_nearest(keys_.data(), capacity(), base, kEbhEmptySlot);
  if (slot == simd::kNotFound) return std::numeric_limits<size_t>::max();
  keys_[slot] = key;
  values_[slot] = value;
  return slot > base ? slot - base : base - slot;
}

void EbhLeaf::Build(std::span<const KeyValue> data) {
  const size_t cap =
      fixed_capacity_ ? capacity() : EbhCapacityFor(data.size(), tau_);
  // Adaptive hash factor: when the node's keys cluster tighter than one
  // slot's key width, the linear Eq. 2 hash maps whole clusters onto a
  // single slot and displacement explodes. Scale alpha so the *median*
  // adjacent key gap advances ~1.6 slots ("minor changes in the input
  // lead to substantial changes in the hash value", Sec. III-B) — this
  // is the mechanism that flattens locally skewed data. `data` is sorted,
  // so the median gap is read off directly. Explicit-capacity nodes
  // (worked examples) keep their alpha.
  if (adaptive_alpha_ && !fixed_capacity_ && data.size() >= 8) {
    std::vector<double> gaps;
    gaps.reserve(data.size() - 1);
    for (size_t i = 1; i < data.size(); ++i) {
      gaps.push_back(static_cast<double>(data[i].key) -
                     static_cast<double>(data[i - 1].key));
    }
    std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2,
                     gaps.end());
    const double g_med = std::max(1.0, gaps[gaps.size() / 2]);
    const double range =
        static_cast<double>(uk_) - static_cast<double>(lk_);
    if (range > 0.0) {
      const double stride =
          alpha_ * static_cast<double>(cap) * g_med / range;
      if (stride < 1.0) {
        alpha_ = 1.6 * range / (static_cast<double>(cap) * g_med);
      }
    }
  }
  const int max_attempts = (adaptive_alpha_ && !fixed_capacity_) ? 5 : 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    keys_.assign(cap, kEbhEmptySlot);
    values_.assign(cap, 0);
    RecomputeHashScale();
    num_keys_ = 0;
    cd_ = 0;
    size_t total_off = 0;
    for (const KeyValue& kv : data) {
      const size_t off = Place(kv.key, kv.value);
      assert(off != std::numeric_limits<size_t>::max());
      cd_ = std::max(cd_, off);
      total_off += off;
      ++num_keys_;
    }
    const bool healthy =
        num_keys_ < 8 ||
        (total_off <= 2 * num_keys_ &&
         cd_ <= std::max<size_t>(16, num_keys_ / 4));
    if (healthy || attempt + 1 == max_attempts) break;
    alpha_ *= 16.0;  // stretch sub-slot clusters across the table
  }
}

bool EbhLeaf::LookupAt(size_t base, Key key, Value* value) const {
  // Error-bounded probe: the key, if present, lies within +-cd_ of its
  // hash slot. Empty slots hold the sentinel and simply never match.
  if (keys_[base] == key) {
    if (value != nullptr) *value = values_[base];
    return true;
  }
  if (cd_ == 0) {
    return false;
  }
  // Windowed scan over [base-cd, base+cd] clamped to the array, through
  // the dispatched SIMD kernel (8 slot compares per AVX-512 instruction,
  // movemask to locate the unique hit; scalar tier keeps the original
  // conditional-select loop). Keys are unique, so at most one slot
  // matches and scan order cannot change the result.
  const size_t c = capacity();
  const size_t lo = base > cd_ ? base - cd_ : 0;
  const size_t hi = base + cd_ < c ? base + cd_ : c - 1;
  const size_t pos = kernels_->find_in_window(keys_.data(), lo, hi, key);
  if (pos == simd::kNotFound) {
    // Charge the displacement actually scanned: near the array edges
    // the window is clamped, so a miss costs less than the nominal cd_
    // per side (previously over-reported as cd_ at leaf boundaries).
    CHAMELEON_STAT_ADD(kEbhProbeSteps, std::max(hi - base, base - lo));
    return false;
  }
  if (value != nullptr) *value = values_[pos];
  CHAMELEON_STAT_ADD(kEbhProbeSteps, pos > base ? pos - base : base - pos);
  return true;
}

void EbhLeaf::Expand(size_t new_capacity) {
  CHAMELEON_STAT_INC(kEbhExpansions);
  CHAMELEON_TRACE(kLeafExpansion, capacity(), new_capacity);
  std::vector<KeyValue> pairs;
  pairs.reserve(num_keys_);
  CollectUnsorted(&pairs);
  keys_.assign(new_capacity, kEbhEmptySlot);
  values_.assign(new_capacity, 0);
  RecomputeHashScale();
  num_keys_ = 0;
  cd_ = 0;
  for (const KeyValue& kv : pairs) {
    const size_t off = Place(kv.key, kv.value);
    assert(off != std::numeric_limits<size_t>::max());
    cd_ = std::max(cd_, off);
    ++num_keys_;
  }
}

bool EbhLeaf::Insert(Key key, Value value) {
  if (key == kEbhEmptySlot) return false;  // reserved sentinel
  if (Lookup(key, nullptr)) return false;
  // Lazy expansion (Sec. V: on updates, leaves "only need to expand
  // their capacity"): grow only when nearly full. The load factor — and
  // with it the conflict degree — drifts upward between retrains; the
  // background retraining pass rebuilds drifted nodes back to their
  // Theorem-1 capacity (this drift is exactly what Fig. 15 measures).
  if ((num_keys_ + 1) * 10 > capacity() * 9) {
    Expand(EbhCapacityFor(num_keys_ * 2 + 2, tau_));
  }
  size_t off = Place(key, value);
  if (off == std::numeric_limits<size_t>::max()) {
    Expand(EbhCapacityFor(num_keys_ * 2 + 2, tau_));
    off = Place(key, value);
    assert(off != std::numeric_limits<size_t>::max());
  }
  total_shifts_ += off;
  CHAMELEON_STAT_ADD(kEbhShifts, off);
  cd_ = std::max(cd_, off);
  ++num_keys_;
  return true;
}

bool EbhLeaf::Erase(Key key) {
  if (key == kEbhEmptySlot) return false;
  const size_t c = capacity();
  const size_t base = HashSlot(key);
  const size_t lo = base > cd_ ? base - cd_ : 0;
  const size_t hi = base + cd_ < c ? base + cd_ : c - 1;
  const size_t i = kernels_->find_in_window(keys_.data(), lo, hi, key);
  if (i == simd::kNotFound) return false;
  keys_[i] = kEbhEmptySlot;
  // Zero the payload with the sentinel: empty slots must never carry a
  // stale value (serialization persists the raw arrays, and the
  // invariant "!occupied => value == 0" keeps snapshots reproducible —
  // and the SIMD paths rely on sentinel slots never holding a live key).
  values_[i] = 0;
  --num_keys_;
  CHAMELEON_STAT_INC(kEbhErases);
  return true;
}

void EbhLeaf::CollectUnsorted(std::vector<KeyValue>* out) const {
  // [kMinKey, kMaxKey] with the sentinel excluded == "every occupied
  // slot"; the kernel's gather-compact walks vector-width blocks and
  // extracts set mask bits, skipping empty regions 4-8 slots at a time.
  kernels_->range_collect(keys_.data(), values_.data(), capacity(), kMinKey,
                          kMaxKey, kEbhEmptySlot, out);
}

size_t EbhLeaf::RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const {
  // The slots are unordered (the paper's trade), so the kernel gathers
  // and orders the hits in one pass: compress-and-rank on the vector
  // tiers, collect + std::sort on the scalar tier.
  return kernels_->range_collect_sorted(keys_.data(), values_.data(),
                                        capacity(), lo, hi, kEbhEmptySlot,
                                        out);
}

size_t EbhLeaf::SizeBytes() const {
  return sizeof(EbhLeaf) + keys_.capacity() * sizeof(Key) +
         values_.capacity() * sizeof(Value);
}

EbhLeaf EbhLeaf::FromRaw(Key lk, Key uk, double tau, double alpha,
                         size_t conflict_degree, size_t num_keys,
                         std::vector<Key> keys, std::vector<Value> values) {
  EbhLeaf leaf(lk, uk, 0, tau, alpha);
  leaf.keys_ = std::move(keys);
  leaf.values_ = std::move(values);
  leaf.cd_ = conflict_degree;
  leaf.num_keys_ = num_keys;
  leaf.RecomputeHashScale();
  return leaf;
}

void EbhLeaf::AccumulateError(double* err_sum, double* err_max) const {
  for (size_t i = 0; i < capacity(); ++i) {
    if (!occupied(i)) continue;
    const double err = std::abs(static_cast<double>(i) -
                                static_cast<double>(HashSlot(keys_[i])));
    *err_sum += err;
    *err_max = std::max(*err_max, err);
  }
}

}  // namespace chameleon
