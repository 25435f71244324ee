#ifndef CHAMELEON_SIMD_PROBE_KERNEL_H_
#define CHAMELEON_SIMD_PROBE_KERNEL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/common.h"

namespace chameleon::simd {

/// "Not found" sentinel for the slot-search kernels.
inline constexpr size_t kNotFound = static_cast<size_t>(-1);

/// Compile-time ISA tiers, ordered by preference (higher = wider). Which
/// tiers exist in a binary depends on the CHAMELEON_SIMD CMake toggle
/// and the target architecture; kScalar is always present and is the
/// differential-testing oracle for every other tier.
enum class SimdLevel {
  kScalar = 0,
  kSse2 = 1,     ///< x86-64 baseline: 2x64-bit lanes (pure SSE2 compares)
  kAvx2 = 2,     ///< 4x64-bit lanes
  kAvx512 = 3,   ///< 8x64-bit lanes, mask registers
  kNeon = 4,     ///< aarch64: 2x64-bit lanes
};

inline constexpr size_t kNumSimdLevels = 5;

std::string_view SimdLevelName(SimdLevel level);

/// Parses a level name ("scalar", "sse2", "avx2", "avx512", "neon");
/// returns false on unknown input.
bool ParseSimdLevel(std::string_view name, SimdLevel* out);

/// The probe-kernel function table for one ISA tier. All kernels operate
/// on the raw EBH slot arrays and rely on two EbhLeaf invariants
/// (DESIGN.md §12): empty slots hold the kEbhEmptySlot sentinel (never a
/// stale key), and stored keys are unique — so "find the slot equal to
/// k" has at most one answer and scan order cannot change a result.
/// Vector loads are unaligned (`loadu`); no kernel reads outside the
/// index range it is given (edge tails are handled scalar), which the
/// ASan CI job enforces.
struct ProbeKernels {
  SimdLevel level;
  /// Tier name ("avx2"); echoed into bench provenance.
  const char* name;

  /// Window probe: returns the index in [lo, hi] (inclusive) whose slot
  /// equals `key`, or kNotFound. The EbhLeaf caller passes the clamped
  /// error-bounded window [P(k)-cd, P(k)+cd].
  size_t (*find_in_window)(const Key* keys, size_t lo, size_t hi, Key key);

  /// Free-slot / nearest-match search for Insert's placement path:
  /// returns the index i in [0, cap), i != base, with keys[i] == key
  /// minimizing |i - base|, preferring the upper side on ties (the exact
  /// order EbhLeaf::Place's alternating scalar scan visits slots), or
  /// kNotFound when no slot matches. Called with key = kEbhEmptySlot to
  /// find the nearest free slot.
  size_t (*find_nearest)(const Key* keys, size_t cap, size_t base, Key key);

  /// Gather-compact for RangeScan/CollectUnsorted: appends
  /// {keys[i], values[i]} in index order for every i in [0, cap) with
  /// keys[i] != sentinel and lo <= keys[i] <= hi (unsigned); returns the
  /// number appended. Tiers without unsigned 64-bit vector compares
  /// (SSE2/scalar-range fallbacks) may point this at the scalar
  /// implementation; `range_name` records which one actually runs.
  size_t (*range_collect)(const Key* keys, const Value* values, size_t cap,
                          Key lo, Key hi, Key sentinel,
                          std::vector<KeyValue>* out);
  /// Name of the tier range_collect actually dispatches to (== name
  /// except for tiers that borrow the scalar gather).
  const char* range_name;

  /// Sorted gather for EbhLeaf::RangeScan: appends exactly the pairs
  /// range_collect would, but in ascending key order; returns the number
  /// appended. The scalar oracle is range_collect followed by std::sort
  /// of the appended part. Vector tiers compress the hits into a fixed
  /// stack scratch and place each pair by rank (the count of hits with a
  /// smaller key), which is exact because stored keys are unique; above
  /// kSortedRankCutoff hits they fall back to their range_collect plus
  /// std::sort. No tier allocates beyond growing `out`.
  size_t (*range_collect_sorted)(const Key* keys, const Value* values,
                                 size_t cap, Key lo, Key hi, Key sentinel,
                                 std::vector<KeyValue>* out);
  /// Name of the tier range_collect_sorted actually dispatches to (SSE2
  /// and NEON borrow the scalar kernel).
  const char* sorted_name;
};

/// Largest hit count the vector range_collect_sorted tiers rank-sort;
/// above it they take range_collect + std::sort. Ranking costs
/// hits x ceil(hits / lanes) vector compares, so its edge over
/// std::sort shrinks as hits grow. A sweep of the AVX-512 kernel
/// against AVX-512 collect + std::sort (random leaves at 60 % load, the
/// range covering `hits` keys; 4-core Xeon, gcc 12 -O2) measured
/// speedups of 0.7-0.9x at 4 hits, 5.4x at 32, 3.0-3.2x at 128,
/// 1.7-2.7x at 256 and 1.2-1.3x at 512: the break-even lies beyond 512.
/// 256 keeps every leaf of a short scan (a YCSB-E scan meets ~30 hits
/// per leaf) on the rank path, stays 2x clear of the break-even, and
/// bounds the stack scratch at ~4 KiB.
inline constexpr size_t kSortedRankCutoff = 256;

/// The scalar oracle; always available, identical semantics to the
/// pre-SIMD EbhLeaf loops.
const ProbeKernels& ScalarKernels();

/// Kernel table for `level`, or nullptr when that tier was not compiled
/// into this binary (CHAMELEON_SIMD=OFF or wrong architecture). The
/// scalar tier is never null.
const ProbeKernels* KernelsForLevel(SimdLevel level);

/// Highest tier this binary carries that the running CPU supports,
/// resolved once (cpuid via __builtin_cpu_supports) on first use. The
/// CHAMELEON_SIMD_LEVEL environment variable ("scalar" ... "avx512")
/// caps the choice — it selects that tier when compiled in and
/// supported, and falls back to the best available tier otherwise.
SimdLevel DetectSimdLevel();

/// Tiers usable on this host: compiled in AND supported by the CPU,
/// kScalar first. Differential tests iterate this.
std::vector<SimdLevel> AvailableSimdLevels();

/// The dispatched kernel table: KernelsForLevel(ActiveSimdLevel()).
/// EbhLeaf caches this pointer at construction, so an override applies
/// to leaves built after the call (tests rebuild their indexes per
/// level).
const ProbeKernels& ActiveKernels();
SimdLevel ActiveSimdLevel();

/// Overrides the dispatched tier (tests, tooling). Returns false — and
/// changes nothing — when `level` is not available on this host.
bool SetActiveSimdLevel(SimdLevel level);

/// Human-readable summary of the CPU's SIMD-relevant feature bits
/// ("sse2 sse4.2 avx2 avx512f"), independent of what was compiled in;
/// chameleon_inspect --kernels dumps it so bench blobs stay auditable.
std::string CpuFeatureString();

}  // namespace chameleon::simd

#endif  // CHAMELEON_SIMD_PROBE_KERNEL_H_
