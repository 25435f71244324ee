#ifndef CHAMELEON_CORE_EBH_LEAF_H_
#define CHAMELEON_CORE_EBH_LEAF_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/simd/probe_kernel.h"
#include "src/util/common.h"

namespace chameleon {

/// Slot sentinel: EBH leaves store keys inline and mark empty slots with
/// kMaxKey, so a probe touches one cache line per slot instead of a
/// separate occupancy bitmap. Consequently kMaxKey itself cannot be
/// indexed (documented on KvIndex; the SOSD data domain never contains
/// it).
inline constexpr Key kEbhEmptySlot = kMaxKey;

/// Theorem 1: minimum slot capacity so that the collision probability of
/// an EBH node with `n` keys stays below `tau`:
///   c >= (n - 1) / (-ln(1 - tau)).
size_t EbhCapacityFor(size_t n, double tau, size_t min_capacity = 8);

/// Error Bounded Hashing leaf node (Sec. III-A "Leaf Nodes").
///
/// Keys in [lk, uk) are placed by the hash function of Eq. (2):
///
///   P(k) = alpha * ( c/(uk - lk) * (k - lk) )  mod  c
///
/// The multiplication by alpha (131 in the paper's running example)
/// scatters locally dense key clusters across the whole slot array —
/// the mechanism that flattens local skew. Collisions displace a key to
/// the nearest free slot; the node tracks its *conflict degree* `cd`
/// (Definition 2: the maximum displacement), so probes never scan more
/// than [P(k) - cd, P(k) + cd]: the hash is error-bounded.
///
/// Slots are unordered by key (the paper: "the unordered EBH eliminates
/// sorting operations during retraining"), so a range scan orders its
/// hits itself: the dispatched range_collect_sorted kernel compresses
/// them into stack scratch and places each by rank (vector tiers, up to
/// simd::kSortedRankCutoff hits), or collects and std::sorts (scalar
/// tier and larger hit sets). CollectUnsorted and the retrainer never
/// pay for order.
class EbhLeaf {
 public:
  /// Creates an empty leaf over [lk, uk) sized for `expected_keys` at
  /// collision probability `tau`.
  EbhLeaf(Key lk, Key uk, size_t expected_keys, double tau,
          double alpha = 131.0);

  /// Creates a leaf with an explicit slot capacity (tests / worked
  /// examples); Build() keeps this capacity instead of resizing.
  static EbhLeaf WithExplicitCapacity(Key lk, Key uk, size_t capacity,
                                      double tau, double alpha = 131.0);

  /// Bulk build from sorted pairs (all keys must lie in [lk, uk)).
  void Build(std::span<const KeyValue> data);

  bool Lookup(Key key, Value* value) const {
    return LookupAt(HashSlot(key), key, value);
  }

  /// The probe kernel with the home slot precomputed (the batched read
  /// path computes it in a prefetch stage; see ChameleonIndex::
  /// LookupBatch). `base` must equal HashSlot(key).
  bool LookupAt(size_t base, Key key, Value* value) const;

  /// Issues a software prefetch for slot `base`'s key and value lines so
  /// a later LookupAt(base, ...) finds them in cache.
  void PrefetchSlot(size_t base) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(keys_.data() + base, /*rw=*/0, /*locality=*/1);
    __builtin_prefetch(values_.data() + base, 0, 1);
#else
    (void)base;
#endif
  }

  /// PrefetchSlot plus the edges of the error-bounded probe window
  /// [base-cd, base+cd] (clamped): with cd beyond one cache line of
  /// keys, the vectorized window probe touches up to three key lines,
  /// and the batched read path wants all of them in flight before the
  /// probe stage runs. `base` must equal HashSlot(key).
  void PrefetchProbeWindow(size_t base) const {
    PrefetchSlot(base);
#if defined(__GNUC__) || defined(__clang__)
    if (cd_ == 0) return;
    const size_t c = capacity();
    __builtin_prefetch(keys_.data() + (base > cd_ ? base - cd_ : 0), 0, 1);
    __builtin_prefetch(
        keys_.data() + (base + cd_ < c ? base + cd_ : c - 1), 0, 1);
#endif
  }

  /// Returns false on duplicate. Expands (rehashes at Theorem-1 capacity
  /// for the new population) when the load factor crosses the threshold
  /// or no slot is reachable within the probe bound.
  bool Insert(Key key, Value value);

  bool Erase(Key key);

  /// Appends all stored pairs (unsorted) to `*out`.
  void CollectUnsorted(std::vector<KeyValue>* out) const;

  /// Appends pairs with key in [lo, hi], sorted, to `*out`; returns count.
  size_t RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const;

  size_t num_keys() const { return num_keys_; }
  size_t capacity() const { return keys_.size(); }
  /// Conflict degree: current maximum displacement (Definition 2).
  size_t conflict_degree() const { return cd_; }
  Key lk() const { return lk_; }
  Key uk() const { return uk_; }
  size_t SizeBytes() const;
  /// Total displacement shifts performed by inserts (bench metric).
  size_t total_shifts() const { return total_shifts_; }

  /// Hash slot for `key` (Eq. 2); exposed for tests.
  size_t HashSlot(Key key) const;

  /// Disables the adaptive alpha selection/escalation in Build(),
  /// pinning the constructor's alpha (used by the ablation bench that
  /// quantifies how much the adaptive hash contributes).
  void set_adaptive_alpha(bool adaptive) { adaptive_alpha_ = adaptive; }
  double alpha() const { return alpha_; }

  /// Sum and max of |stored slot - hashed slot| over all keys — the
  /// actual prediction error of the EBH model (Table V's Max/AvgError).
  void AccumulateError(double* err_sum, double* err_max) const;

  /// The SIMD kernel tier this leaf's probe/insert/scan paths dispatch
  /// to (fixed at construction from simd::ActiveKernels(); see
  /// DESIGN.md §12). Exposed for tests and tooling.
  const simd::ProbeKernels& probe_kernels() const { return *kernels_; }

  // --- Serialization support (slot-exact persistence) ---------------------
  const std::vector<Key>& raw_keys() const { return keys_; }
  const std::vector<Value>& raw_values() const { return values_; }
  double tau() const { return tau_; }

  /// Reconstructs a leaf from persisted raw state; `keys`/`values` are
  /// the full slot arrays (sentinel-marked empties included).
  static EbhLeaf FromRaw(Key lk, Key uk, double tau, double alpha,
                         size_t conflict_degree, size_t num_keys,
                         std::vector<Key> keys, std::vector<Value> values);

 private:
  bool fixed_capacity_ = false;  // set by WithExplicitCapacity
  bool adaptive_alpha_ = true;

  void Expand(size_t new_capacity);
  /// Places a key at the nearest free slot to its hash; returns the
  /// displacement or SIZE_MAX when no slot is free within the bound.
  size_t Place(Key key, Value value);

  void RecomputeHashScale();

  Key lk_;
  Key uk_;
  double tau_;
  double alpha_;
  // The dispatched SIMD kernel table (points at immutable static data;
  // copies/moves of the leaf share it). Cached per leaf so the hot
  // paths pay one indirect call with no dispatch branch, and so a
  // simd::SetActiveSimdLevel override only affects leaves built after
  // it (differential tests rebuild their indexes per tier).
  const simd::ProbeKernels* kernels_ = &simd::ActiveKernels();
  // Cached alpha * c / (uk - lk): HashSlot is one multiply + fmod.
  double hash_scale_ = 0.0;
  bool occupied(size_t i) const { return keys_[i] != kEbhEmptySlot; }

  std::vector<Key> keys_;
  std::vector<Value> values_;
  size_t num_keys_ = 0;
  size_t cd_ = 0;
  size_t total_shifts_ = 0;
};

}  // namespace chameleon

#endif  // CHAMELEON_CORE_EBH_LEAF_H_
