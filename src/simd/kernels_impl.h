#ifndef CHAMELEON_SIMD_KERNELS_IMPL_H_
#define CHAMELEON_SIMD_KERNELS_IMPL_H_

// Internal to src/simd/: the ISA-generic kernel algorithms, shared by
// every per-ISA translation unit. Each TU supplies a Traits type that
// wraps its intrinsics (lane count, unaligned load, equality/range
// masks) and instantiates detail::Kernels<Traits>; the TU is compiled
// with that ISA's flags (see src/CMakeLists.txt), so the template bodies
// here compile to that ISA's instructions. Members instantiate lazily —
// a tier without unsigned vector compares (SSE2) simply never references
// Kernels<T>::RangeCollect and borrows the scalar gather instead, and a
// tier without a lane compress (SSE2, NEON) borrows the scalar sorted
// gather.

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/simd/probe_kernel.h"

namespace chameleon::simd::detail {

// --- Scalar reference kernels ------------------------------------------------
// The pre-SIMD EbhLeaf loops, verbatim in shape: the scalar tier *is*
// these functions, and every vector tier uses them for sub-lane-width
// windows and edge tails.

/// Branch-light conditional-select scan over [lo, hi] (the original
/// LookupAt window loop). Keys are unique, so at most one slot matches
/// and keeping the last match is equivalent to keeping the first.
inline size_t ScalarFindInWindow(const Key* keys, size_t lo, size_t hi,
                                 Key key) {
  size_t pos = kNotFound;
  for (size_t i = lo; i <= hi; ++i) {
    pos = keys[i] == key ? i : pos;
  }
  return pos;
}

/// The alternating-sides placement scan (the original EbhLeaf::Place
/// probe order): offsets 1, 2, ... trying the upper side before the
/// lower at each offset, dropping a side once it runs off the array.
/// Defines the tie-break every vector tier must reproduce: minimal
/// |i - base|, upper side on ties.
inline size_t ScalarFindNearest(const Key* keys, size_t cap, size_t base,
                                Key key) {
  bool up_open = base + 1 < cap;
  bool down_open = base > 0;
  for (size_t off = 1; up_open || down_open; ++off) {
    if (up_open) {
      if (keys[base + off] == key) return base + off;
      up_open = base + off + 1 < cap;
    }
    if (down_open) {
      if (keys[base - off] == key) return base - off;
      down_open = base > off;
    }
  }
  return kNotFound;
}

/// The original RangeScan/CollectUnsorted collect loop. The explicit
/// sentinel exclusion matters: callers may pass hi == kMaxKey (which
/// equals the sentinel), and empty slots must never be collected.
inline size_t ScalarRangeCollect(const Key* keys, const Value* values,
                                 size_t cap, Key lo, Key hi, Key sentinel,
                                 std::vector<KeyValue>* out) {
  const size_t before = out->size();
  for (size_t i = 0; i < cap; ++i) {
    const Key k = keys[i];
    if (k != sentinel && k >= lo && k <= hi) {
      out->push_back({k, values[i]});
    }
  }
  return out->size() - before;
}

/// The scalar range_collect_sorted: collect, then sort the appended
/// part. The oracle every tier's range_collect_sorted must reproduce.
inline size_t ScalarRangeCollectSorted(const Key* keys, const Value* values,
                                       size_t cap, Key lo, Key hi,
                                       Key sentinel,
                                       std::vector<KeyValue>* out) {
  const size_t before = out->size();
  ScalarRangeCollect(keys, values, cap, lo, hi, sentinel, out);
  std::sort(out->begin() + before, out->end());
  return out->size() - before;
}

// --- ISA-generic vector kernels ---------------------------------------------

/// Traits contract:
///   static constexpr size_t kLanes;          // 64-bit lanes per vector
///   using Vec;                               // vector register type
///   static Vec Broadcast(Key k);
///   static Vec LoadU(const Key* p);          // unaligned load of kLanes keys
///   static uint32_t EqMask(Vec v, Vec needle);  // bit i <=> lane i == needle
/// Optional (only tiers with unsigned 64-bit compares):
///   struct RangeCtx; static RangeCtx MakeRangeCtx(Key lo, Key hi, Key sent);
///   static uint32_t RangeMask(Vec v, const RangeCtx&);
///     // bit i <=> lo <= lane i <= hi (unsigned) && lane i != sentinel
///   static Vec Compress(Vec v, uint32_t m);  // lanes set in m, packed low
///   static void StoreU(uint64_t* p, Vec v);  // unaligned store of kLanes
///   static Vec Zero();
///   static Vec Add(Vec a, Vec b);
///   static Vec CountLess(Vec acc, Vec needle, Vec v);
///     // acc + (needle < lane i of v ? 1 : 0) per lane (unsigned)
template <typename T>
struct Kernels {
  /// Branchless full-window scan, the vector analogue of the scalar
  /// conditional-select loop. EBH windows are small (2cd+1 slots, cd
  /// rarely above ~16), so a data-dependent early exit would mispredict
  /// on nearly every displaced hit and cost more than the handful of
  /// blocks it could skip — measured 2-4x worse hit latency on the
  /// bench_probe_kernel sweep. Instead every block updates the match
  /// state with two conditional moves; the loop trip count depends only
  /// on the window width, which the branch predictor learns. The tail
  /// is one unaligned block ending exactly at `hi`, overlapping slots
  /// the last full block already scanned.
  ///
  /// Live probes match at most one slot (unique keys), but the kernel
  /// still reproduces the scalar loop's keep-the-LAST-match answer when
  /// duplicates exist (e.g. a caller probing the sentinel): selection
  /// keeps the latest block with a match, and the highest set mask bit
  /// picks the last lane inside it — which also makes the overlapping
  /// tail block benign, since re-selecting it keeps a consistent
  /// (block, mask) pair.
  static size_t FindInWindow(const Key* keys, size_t lo, size_t hi, Key key) {
    if (hi - lo + 1 < T::kLanes) {
      return ScalarFindInWindow(keys, lo, hi, key);
    }
    const typename T::Vec needle = T::Broadcast(key);
    uint32_t found_m = 0;
    size_t found_i = 0;
    const size_t last_block = hi + 1 - T::kLanes;
    size_t i = lo;
    for (; i <= last_block; i += T::kLanes) {
      const uint32_t m = T::EqMask(T::LoadU(keys + i), needle);
      found_i = m != 0 ? i : found_i;
      found_m = m != 0 ? m : found_m;
    }
    if (i <= hi) {
      const uint32_t m = T::EqMask(T::LoadU(keys + last_block), needle);
      found_i = m != 0 ? last_block : found_i;
      found_m = m != 0 ? m : found_m;
    }
    return found_m != 0
               ? found_i + static_cast<size_t>(std::bit_width(found_m)) - 1
               : kNotFound;
  }

  /// Expanding two-sided block search around `base`, one kLanes-wide
  /// block per side per round. A side only scans a partial block when it
  /// reaches its array edge (and is then exhausted), so at the end of
  /// any round both live sides have covered the same distance — which
  /// makes "first round with any match wins" exact: the other side's
  /// unscanned slots are all farther away. Ties inside a round resolve
  /// like the scalar alternating scan: minimal distance, upper side
  /// preferred.
  static size_t FindNearest(const Key* keys, size_t cap, size_t base,
                            Key key) {
    if (cap == 0) return kNotFound;
    const typename T::Vec needle = T::Broadcast(key);
    size_t up = base + 1;  // next unscanned index above base
    size_t down = base;    // next down-block covers [down - n, down)
    while (up < cap || down > 0) {
      size_t best_up = kNotFound;
      if (up < cap) {
        const size_t n = std::min(T::kLanes, cap - up);
        if (n == T::kLanes) {
          const uint32_t m = T::EqMask(T::LoadU(keys + up), needle);
          if (m != 0) best_up = up + static_cast<size_t>(std::countr_zero(m));
        } else {
          for (size_t j = 0; j < n; ++j) {
            if (keys[up + j] == key) {
              best_up = up + j;
              break;
            }
          }
        }
        up += n;
      }
      size_t best_down = kNotFound;
      if (down > 0) {
        const size_t n = std::min(T::kLanes, down);
        const size_t begin = down - n;
        if (n == T::kLanes) {
          const uint32_t m = T::EqMask(T::LoadU(keys + begin), needle);
          if (m != 0) {
            best_down = begin + static_cast<size_t>(std::bit_width(m)) - 1;
          }
        } else {
          for (size_t j = n; j > 0; --j) {
            if (keys[begin + j - 1] == key) {
              best_down = begin + j - 1;
              break;
            }
          }
        }
        down = begin;
      }
      if (best_up != kNotFound || best_down != kNotFound) {
        const size_t du = best_up != kNotFound ? best_up - base : kNotFound;
        const size_t dd =
            best_down != kNotFound ? base - best_down : kNotFound;
        return du <= dd ? best_up : best_down;
      }
    }
    return kNotFound;
  }

  static size_t RangeCollect(const Key* keys, const Value* values, size_t cap,
                             Key lo, Key hi, Key sentinel,
                             std::vector<KeyValue>* out) {
    const size_t before = out->size();
    size_t i = 0;
    if (cap >= T::kLanes) {
      const typename T::RangeCtx ctx = T::MakeRangeCtx(lo, hi, sentinel);
      for (; i + T::kLanes <= cap; i += T::kLanes) {
        uint32_t m = T::RangeMask(T::LoadU(keys + i), ctx);
        while (m != 0) {
          const size_t j = i + static_cast<size_t>(std::countr_zero(m));
          out->push_back({keys[j], values[j]});
          m &= m - 1;
        }
      }
    }
    for (; i < cap; ++i) {
      const Key k = keys[i];
      if (k != sentinel && k >= lo && k <= hi) {
        out->push_back({k, values[i]});
      }
    }
    return out->size() - before;
  }

  /// This tier's range_collect followed by std::sort: the path for
  /// leaves with more than kSortedRankCutoff hits.
  static size_t CollectThenSort(const Key* keys, const Value* values,
                                size_t cap, Key lo, Key hi, Key sentinel,
                                std::vector<KeyValue>* out) {
    const size_t before = out->size();
    RangeCollect(keys, values, cap, lo, hi, sentinel, out);
    std::sort(out->begin() + before, out->end());
    return out->size() - before;
  }

  /// Compress-and-rank sorted gather. Pass 1 range-masks each block and
  /// compresses the hit keys and values into stack scratch (structure
  /// of arrays; every store writes a whole vector at the fill position,
  /// hence one block of slack), then pads the keys to a whole block with
  /// kMaxKey so no lane read later is uninitialized. Pass 2 takes the
  /// hits kLanes at a time and counts, per lane, the hits with a smaller
  /// key: one broadcast, compare and masked increment per (hit, block),
  /// in two accumulators to overlap the compare latency. Hit j goes to
  /// out[before + rank_j]. The ranks are a permutation of [0, n) because
  /// stored keys are unique; no branch depends on key order, which is
  /// what beats std::sort's ~log2(n) mispredicting compares per hit on
  /// the small, randomly ordered hit sets of EBH leaves.
  static size_t RangeCollectSorted(const Key* keys, const Value* values,
                                   size_t cap, Key lo, Key hi, Key sentinel,
                                   std::vector<KeyValue>* out) {
    if (cap < T::kLanes) {
      return ScalarRangeCollectSorted(keys, values, cap, lo, hi, sentinel,
                                      out);
    }
    // Left uninitialized on purpose: every lane read below is written
    // first (compress stores, padding), and clearing ~4 KiB per leaf
    // would cost more than the sort this replaces.
    alignas(64) Key hit_keys[kSortedRankCutoff + T::kLanes];
    alignas(64) Value hit_values[kSortedRankCutoff + T::kLanes];
    const typename T::RangeCtx ctx = T::MakeRangeCtx(lo, hi, sentinel);
    size_t n = 0;
    // Appends the lanes of block `i` selected by `m`; false once the
    // hits would overflow the scratch.
    const auto gather = [&](size_t i, uint32_t m) {
      const size_t hits = static_cast<size_t>(std::popcount(m));
      if (n + hits > kSortedRankCutoff) return false;
      T::StoreU(hit_keys + n, T::Compress(T::LoadU(keys + i), m));
      T::StoreU(hit_values + n, T::Compress(T::LoadU(values + i), m));
      n += hits;
      return true;
    };
    size_t i = 0;
    for (; i + T::kLanes <= cap; i += T::kLanes) {
      if (!gather(i, T::RangeMask(T::LoadU(keys + i), ctx))) {
        return CollectThenSort(keys, values, cap, lo, hi, sentinel, out);
      }
    }
    if (i < cap) {
      // Tail: one block ending exactly at cap, keeping only the lanes
      // at or above i (the ones below were gathered already).
      const size_t start = cap - T::kLanes;
      const uint32_t fresh = ~((1u << (i - start)) - 1);
      if (!gather(start, T::RangeMask(T::LoadU(keys + start), ctx) & fresh)) {
        return CollectThenSort(keys, values, cap, lo, hi, sentinel, out);
      }
    }
    const size_t padded = (n + T::kLanes - 1) / T::kLanes * T::kLanes;
    for (size_t j = n; j < padded; ++j) hit_keys[j] = kMaxKey;
    const size_t before = out->size();
    out->resize(before + n);
    KeyValue* dst = out->data() + before;
    alignas(64) uint64_t ranks[T::kLanes];
    for (size_t b = 0; b < n; b += T::kLanes) {
      const typename T::Vec block = T::LoadU(hit_keys + b);
      typename T::Vec r0 = T::Zero();
      typename T::Vec r1 = T::Zero();
      size_t j = 0;
      for (; j + 2 <= n; j += 2) {
        r0 = T::CountLess(r0, T::Broadcast(hit_keys[j]), block);
        r1 = T::CountLess(r1, T::Broadcast(hit_keys[j + 1]), block);
      }
      if (j < n) r0 = T::CountLess(r0, T::Broadcast(hit_keys[j]), block);
      T::StoreU(ranks, T::Add(r0, r1));
      const size_t lanes = std::min(T::kLanes, n - b);
      for (size_t l = 0; l < lanes; ++l) {
        dst[ranks[l]] = {hit_keys[b + l], hit_values[b + l]};
      }
    }
    return n;
  }
};

// --- Per-ISA tier accessors --------------------------------------------------
// Defined by their translation units; each returns nullptr when the
// tier is not compiled in (CHAMELEON_SIMD=OFF or wrong architecture),
// so dispatch.cc can probe availability without preprocessor coupling.
const ProbeKernels* Sse2Kernels();
const ProbeKernels* Avx2Kernels();
const ProbeKernels* Avx512Kernels();
const ProbeKernels* NeonKernels();

}  // namespace chameleon::simd::detail

#endif  // CHAMELEON_SIMD_KERNELS_IMPL_H_
