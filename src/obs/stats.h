#ifndef CHAMELEON_OBS_STATS_H_
#define CHAMELEON_OBS_STATS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace chameleon::obs {

/// Catalog of index-wide event counters. Every entry has a stable snake
/// case name (CounterName) used in bench `--json` snapshots and the
/// DESIGN.md counter catalog; append new counters at the end so emitted
/// snapshots stay diffable across PRs.
enum class Counter : uint32_t {
  // API-level operation counts (ChameleonIndex entry points).
  kLookups = 0,
  kInserts,
  kErases,
  kRangeScans,
  // EBH leaf behavior (Sec. III-A): probe steps beyond the hashed slot
  // (the "overflow chain" of displaced keys), displacement shifts paid
  // by inserts, and capacity expansions (the EBH analog of a split).
  kEbhProbeSteps,
  kEbhShifts,
  kEbhExpansions,
  // Structural modifications in baselines (currently ALEX leaf splits);
  // lets fig14-style runs attribute maintenance spikes.
  kNodeSplits,
  // Retraining (Sec. V).
  kRetrainPasses,
  kUnitsRebuilt,
  kRetrainReplayedOps,
  kRetrainLockDenied,
  kFullRebuilds,
  // Interval Lock (Definition 4) traffic.
  kQueryLockAcquired,
  kQueryLockSpins,
  kRetrainLockAcquired,
  kRetrainLockSpins,
  // API layer.
  kIndexesCreated,
  // EBH slot-level erases (appended after kIndexesCreated so existing
  // JSON snapshots stay diffable; see the catalog note above).
  kEbhErases,
  // Engine layer: inner-index builds issued by ShardedIndex::BulkLoad.
  kShardBuilds,
  // Storage layer (src/storage/): write-ahead-log traffic, checkpoint
  // and recovery events. Appended after kShardBuilds per the catalog
  // note above.
  kWalAppends,
  kWalFsyncs,
  kWalBytes,
  kWalReplayedRecords,
  kCheckpoints,
  kRecoveries,
  // Times ChameleonIndex::SaveTo found a live retraining thread and had
  // to pause/drain it before walking the structure.
  kSaveRetrainerPauses,
  // Multi-writer contention (appended per the catalog note above):
  // contended writer-lock acquisitions on h-level intervals, and WAL
  // Append calls that found another appender holding the buffer mutex
  // (the direct measure of group commit seeing real concurrency).
  kIntervalLockWriteWaits,
  kWalConcurrentAppends,
  // Tiered disk engine (src/tiered/, appended per the catalog note
  // above): buffer-pool traffic against the page file, then merges and
  // delta inserts of every delta overlay (Disk, RS, DIC).
  kTieredPageReads,
  kTieredPageWrites,
  kTieredPageEvictions,
  kTieredPoolHits,
  kTieredPoolMisses,
  kTieredMerges,
  kTieredMergeEntries,
  kTieredDeltaInserts,

  kCount,  // sentinel — keep last
};

inline constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount);

/// Stable snake_case name for JSON snapshots ("lookups", "ebh_shifts", ...).
std::string_view CounterName(Counter c);

/// A full registry read: totals indexed by Counter value.
using CounterSnapshot = std::array<uint64_t, kNumCounters>;

/// Process-wide registry of named, cache-line-padded per-thread
/// counters. Each thread is lazily assigned its own aligned slot, so the
/// hot path is one uncontended relaxed fetch_add on a line no other
/// thread writes; reads aggregate across slots. All operations are
/// lock-free and TSan-clean (plain atomics, relaxed ordering — counter
/// totals are monotonic statistics, not synchronization).
///
/// Instrumentation sites use the CHAMELEON_STAT_* macros below, which
/// compile to no-ops when CHAMELEON_NO_STATS is defined (the registry
/// itself stays available so tooling still links).
class StatsRegistry {
 public:
  static StatsRegistry& Get() noexcept;

  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// Hot path: add `n` to this thread's slot for `c`.
  void Add(Counter c, uint64_t n = 1) noexcept {
    LocalSlot().counts[static_cast<size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Aggregated total for one counter.
  uint64_t Total(Counter c) const noexcept;

  /// Aggregated totals for all counters.
  CounterSnapshot Snapshot() const noexcept;

  /// Zeroes every slot. Concurrent Adds may survive the sweep (benign:
  /// used by tests and at bench start, not mid-measurement).
  void Reset() noexcept;

 private:
  StatsRegistry() = default;

  // One full set of counters per thread, aligned so no two threads'
  // slots ever share a cache line. More than kMaxSlots live threads wrap
  // around and share (fetch_add keeps totals exact even then).
  struct alignas(64) Slot {
    std::atomic<uint64_t> counts[kNumCounters] = {};
  };
  static constexpr size_t kMaxSlots = 128;

  Slot& LocalSlot() noexcept {
    static thread_local const uint32_t idx =
        next_slot_.fetch_add(1, std::memory_order_relaxed) % kMaxSlots;
    return slots_[idx];
  }

  Slot slots_[kMaxSlots] = {};
  std::atomic<uint32_t> next_slot_{0};
};

}  // namespace chameleon::obs

// Instrumentation macros. `counter` is an unqualified Counter enumerator
// (e.g. CHAMELEON_STAT_INC(kLookups)). Under CHAMELEON_NO_STATS both
// expand to nothing (the ADD form still evaluates `n` so locals feeding
// it never become unused — any side-effect-free expression folds away).
#ifndef CHAMELEON_NO_STATS
#define CHAMELEON_STAT_INC(counter)                 \
  ::chameleon::obs::StatsRegistry::Get().Add(       \
      ::chameleon::obs::Counter::counter, 1)
#define CHAMELEON_STAT_ADD(counter, n)              \
  ::chameleon::obs::StatsRegistry::Get().Add(       \
      ::chameleon::obs::Counter::counter, (n))
#else
#define CHAMELEON_STAT_INC(counter) ((void)0)
#define CHAMELEON_STAT_ADD(counter, n) ((void)(n))
#endif

#endif  // CHAMELEON_OBS_STATS_H_
