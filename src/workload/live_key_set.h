#ifndef CHAMELEON_WORKLOAD_LIVE_KEY_SET_H_
#define CHAMELEON_WORKLOAD_LIVE_KEY_SET_H_

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/util/common.h"
#include "src/util/random.h"

namespace chameleon {

/// The set of keys currently present in the index a workload stream is
/// being generated against, held by a WorkloadGenerator so every
/// OpSource shares one definition of "which keys are live" (and one
/// fresh-key scheme) — the invariant that makes
/// generated streams valid: lookups/erases target present keys, inserts
/// use fresh ones.
///
/// Ranks index `present_`, which starts in loaded (sorted) order;
/// erases swap-remove, inserts push_back, so under writes rank order is
/// historical, not sorted. Key-choosers sample ranks, not keys.
///
/// The RNG-consuming methods (InsertFresh) take the caller's Rng and
/// draw from it in a fixed sequence — the bit-identity contract the
/// golden-stream tests pin down.
class LiveKeySet {
 public:
  explicit LiveKeySet(std::span<const Key> loaded);

  size_t size() const { return present_.size(); }
  bool empty() const { return present_.empty(); }
  Key KeyAt(size_t rank) const { return present_[rank]; }
  bool Contains(Key k) const { return pos_.contains(k); }

  /// Removes the key at `rank` (swap-remove) and returns it.
  Key RemoveAt(size_t rank);

  /// Removes `k` if present; returns whether it was.
  bool RemoveKey(Key k);

  /// Generates a fresh key near an existing one (so fresh keys follow
  /// the loaded distribution, as updates do in the paper), inserts it,
  /// and returns it. Draws from `rng`: one draw to pick the base, one
  /// for the offset, per attempt (64 attempts max before the dense
  /// fallback, which keeps keys below 2^52 so double-based models stay
  /// exact).
  Key InsertFresh(Rng& rng);

 private:
  std::vector<Key> present_;
  // Maps each present key to its slot in present_, kept consistent
  // under swap-removes so erases of specific keys are O(1).
  std::unordered_map<Key, size_t> pos_;
};

}  // namespace chameleon

#endif  // CHAMELEON_WORKLOAD_LIVE_KEY_SET_H_
