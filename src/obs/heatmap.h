#ifndef CHAMELEON_OBS_HEATMAP_H_
#define CHAMELEON_OBS_HEATMAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/common.h"

namespace chameleon::obs {

/// One h-level unit's access-heat entry: the unit's key interval
/// [lo, hi) plus sampled read/write hit counts. Counts are *estimates*:
/// instrumentation sites record 1-in-2^HeatSampler::kShift operations
/// and add kWeight per sample, so totals are unbiased but quantized to
/// kWeight. Under CHAMELEON_NO_STATS no hits are ever recorded and all
/// heatmaps are zero/empty.
struct UnitHeat {
  Key lo = 0;
  Key hi = 0;  // exclusive upper bound
  uint64_t reads = 0;
  uint64_t writes = 0;

  uint64_t heat() const { return reads + writes; }
};

/// A point-in-time heat snapshot: one UnitHeat per h-level unit, in key
/// order (the index's unit order). Adapters concatenate inner heatmaps
/// in shard order, which preserves key order.
using Heatmap = std::vector<UnitHeat>;

/// Sampling gate for heat instrumentation: Tick(counter) returns true
/// on every 2^kShift-th call with the same counter, and callers then
/// add kWeight to the unit's counter — one thread-local increment and
/// mask per operation, one relaxed fetch_add per sample. This keeps the
/// heat overhead on the lookup hot path well under the 5% telemetry
/// budget (DESIGN.md §11) while totals stay unbiased in expectation.
/// CHAMELEON_HEAT_HIT keeps one counter per thread *and call site*: a
/// shared counter would alias when stacked layers each record one hit
/// per operation (Disk probes its Chameleon delta, then a page), so
/// with two hits per operation the same layer would take every sample.
class HeatSampler {
 public:
  static constexpr uint32_t kShift = 3;
  static constexpr uint64_t kWeight = uint64_t{1} << kShift;

  static bool Tick(uint32_t& counter) noexcept {
    return (++counter & (kWeight - 1)) == 0;
  }
};

/// Index of the entry with the highest reads+writes; Heatmap::size()
/// ("npos") when the map is empty or entirely cold.
size_t HottestUnit(const Heatmap& map);

/// The k hottest non-cold entries, hottest first (ties keep key order).
Heatmap TopKHottest(const Heatmap& map, size_t k);

/// Element-wise `cur - prev` with saturating subtraction, matched
/// positionally on interval identity: entries whose [lo, hi) moved
/// (a full rebuild re-partitioned the units, resetting counters) are
/// reported with their absolute `cur` counts. Used by the sampler to
/// turn monotonic unit counters into per-tick activity.
Heatmap HeatmapDelta(const Heatmap& cur, const Heatmap& prev);

/// Renders `map` as a compact JSON array:
///   [{"lo":1,"hi":100,"reads":80,"writes":0}, ...]
std::string HeatmapJson(const Heatmap& map);

}  // namespace chameleon::obs

// Heat instrumentation macro. `cell` is a std::atomic<uint64_t> counter
// (a Unit's heat_reads/heat_writes); under CHAMELEON_NO_STATS it
// compiles away entirely.
#ifndef CHAMELEON_NO_STATS
#define CHAMELEON_HEAT_HIT(cell)                                      \
  do {                                                                \
    thread_local uint32_t chameleon_heat_ticks = 0;                   \
    if (::chameleon::obs::HeatSampler::Tick(chameleon_heat_ticks)) {  \
      (cell).fetch_add(::chameleon::obs::HeatSampler::kWeight,        \
                       std::memory_order_relaxed);                    \
    }                                                                 \
  } while (0)
#else
#define CHAMELEON_HEAT_HIT(cell) ((void)0)
#endif

#endif  // CHAMELEON_OBS_HEATMAP_H_
