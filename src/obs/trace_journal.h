#ifndef CHAMELEON_OBS_TRACE_JOURNAL_H_
#define CHAMELEON_OBS_TRACE_JOURNAL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace chameleon::obs {

/// Structural events worth a timeline entry (rare events only — per-op
/// happenings belong in StatsRegistry counters, not here).
enum class TraceEventType : uint32_t {
  /// One retraining pass finished; a = candidate units, b = rebuilt.
  kRetrainPass = 1,
  /// One h-level unit was rebuilt and swapped; a = unit lower key,
  /// b = keys in the fresh subtree.
  kUnitRebuilt,
  /// The retrainer's Retraining-Lock request was denied by a live
  /// Query-Lock (the paper's "access request is denied"); a = unit
  /// lower key.
  kRetrainDenied,
  /// Sec.-V full DARE reconstruction; a = population after rebuild.
  kFullRebuild,
  /// An EBH leaf expanded its slot array; a = old capacity, b = new.
  kLeafExpansion,
  /// DurableIndex wrote a checkpoint; a = live keys snapshotted,
  /// b = WAL segments truncated as obsolete.
  kCheckpoint,
  /// DurableIndex recovered from snapshot + WAL; a = WAL records
  /// replayed, b = recovery duration in microseconds.
  kRecovery,
};

std::string_view TraceEventTypeName(TraceEventType type);

/// One decoded journal entry.
struct TraceEvent {
  int64_t ts_ns = 0;  // steady-clock timestamp (NowNanos)
  TraceEventType type = TraceEventType::kRetrainPass;
  uint64_t a = 0;
  uint64_t b = 0;
};

/// Bounded ring buffer of timestamped structural events — the raw
/// material for post-hoc analysis of Fig. 14/15-style runs (when did
/// retrains fire, which units churned, where did lock conflicts
/// cluster) without attaching a profiler.
///
/// One mutex guards the ring: an enabled Append takes it to write one
/// slot, Snapshot takes it to copy the retained events, so an entry is
/// never seen half-written. The events are rare (retraining passes,
/// unit rebuilds, checkpoints), so the lock is never on a per-operation
/// path. The buffer keeps the most recent kCapacity events and
/// silently overwrites older ones (total_appended() - size() counts the
/// overwritten ones).
///
/// Disabled by default; benches opt in with SetEnabled(true). Appends
/// while disabled are discarded after one relaxed load.
class TraceJournal {
 public:
  static constexpr size_t kCapacity = 4096;

  static TraceJournal& Get() noexcept;

  TraceJournal(const TraceJournal&) = delete;
  TraceJournal& operator=(const TraceJournal&) = delete;

  void SetEnabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  void Append(TraceEventType type, uint64_t a = 0, uint64_t b = 0) noexcept;

  /// Events retained: total_appended() capped at kCapacity.
  size_t size() const noexcept;
  /// Events ever appended (including overwritten ones).
  uint64_t total_appended() const noexcept;

  /// Retained events, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  /// Writes the retained events as JSONL (one {"ts_ns", "type", "a",
  /// "b"} object per line). Returns false on I/O error.
  bool DumpJsonl(const std::string& path) const;

  void Clear() noexcept;

 private:
  TraceJournal() = default;

  mutable std::mutex mu_;
  TraceEvent ring_[kCapacity];  // event i lives at ring_[i % kCapacity]
  uint64_t head_ = 0;           // events ever appended
  std::atomic<bool> enabled_{false};
};

}  // namespace chameleon::obs

// Trace macro mirroring CHAMELEON_STAT_*: no-op under CHAMELEON_NO_STATS.
#ifndef CHAMELEON_NO_STATS
#define CHAMELEON_TRACE(type, a, b)                  \
  ::chameleon::obs::TraceJournal::Get().Append(      \
      ::chameleon::obs::TraceEventType::type, (a), (b))
#else
#define CHAMELEON_TRACE(type, a, b) ((void)(a), (void)(b))
#endif

#endif  // CHAMELEON_OBS_TRACE_JOURNAL_H_
