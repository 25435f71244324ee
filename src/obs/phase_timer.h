#ifndef CHAMELEON_OBS_PHASE_TIMER_H_
#define CHAMELEON_OBS_PHASE_TIMER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/obs/latency_histogram.h"

namespace chameleon::obs {

/// Phases of the durable write path (DESIGN.md §11). Each phase feeds
/// its own process-wide LatencyHistogram, so `bench_durability --json`
/// can report a full write-latency breakdown instead of one opaque
/// number:
///
///   kWalAppend       record assembly + buffered fwrite into the WAL
///                    segment (Wal::Append's append_mu_ section)
///   kGroupCommitWait waiting for (or leading) the group commit that
///                    covers this record's sequence number
///   kFsync           the leader's fflush + ::fsync itself (nested
///                    inside kGroupCommitWait of whichever thread
///                    leads; informational, not additive with it)
///   kApply           applying the logged op to the inner index
///   kRetrainBlock    foreground write acquiring its unit's Writer-Lock
///                    (taken whenever locks are on: behind a retrainer's
///                    exclusive hold of the interval, or a concurrent
///                    reader/writer of the same unit)
///   kWriteTotal      the whole DurableIndex::Insert/Erase call as the
///                    client observes it (includes acquiring the shared
///                    maintenance gate; writers no longer serialize on
///                    a global mutex)
///
/// Additivity contract asserted by tests and the CI bench-smoke step,
/// in both single- and multi-writer modes: count-weighted
/// mean(kWalAppend) + mean(kGroupCommitWait) + mean(kApply) accounts
/// for nearly all of mean(kWriteTotal); the remainder is the shared
/// maintenance-gate acquisition and payload assembly. (kRetrainBlock
/// nests inside kApply's inner call and is informational, like kFsync.)
enum class WritePhase : uint32_t {
  kWalAppend = 0,
  kGroupCommitWait,
  kFsync,
  kApply,
  kRetrainBlock,
  kWriteTotal,
  // Delta-overlay merge lifecycle (src/api/delta_overlay.h: Disk, RS
  // and DIC). Appended after kWriteTotal so existing phase rows stay
  // diffable; the three spans nest inside one DeltaOverlayIndex::Merge
  // call and are disjoint:
  //
  //   kMergeScan     delta drain (one sorted scan)
  //   kMergeWrite    merge-join of the old run with the delta into the
  //                  next run (Disk: its fsync and commit)
  //   kMergeInstall  making it live (Disk: pool reset + fence and
  //                  heat-array swap; RS, DIC: the model rebuild)
  kMergeScan,
  kMergeWrite,
  kMergeInstall,

  kCount,  // sentinel — keep last
};

inline constexpr size_t kNumWritePhases =
    static_cast<size_t>(WritePhase::kCount);

/// Stable snake_case name ("wal_append", "group_commit_wait", ...).
/// Every phase histogram appears in sampler series and Prometheus
/// output as "phase_<name>", touched or not.
std::string_view WritePhaseName(WritePhase p);

/// The process-wide histogram for one phase.
LatencyHistogram& PhaseHistogram(WritePhase p);

/// Zeroes all phase histograms (bench sections reset between
/// configurations; concurrent Records may survive the sweep, same
/// contract as StatsRegistry::Reset).
void ResetPhaseHistograms();

/// Cheap time source for phase spans: the TSC on x86-64 (one `rdtsc`,
/// ~20 cycles, vs ~25ns for a clock_gettime syscall-path read),
/// calibrated against the steady clock from a pair of reads taken when
/// the library loads; NowNanos() elsewhere. Raw ticks are only
/// meaningful through ToNanos().
class CycleClock {
 public:
  static uint64_t Now() noexcept;
  /// Converts an elapsed tick count to nanoseconds. Never blocks: in
  /// the first 10 ms after load a call reads the steady clock once to
  /// refine the ratio, and later calls use the settled ratio.
  static int64_t ToNanos(uint64_t ticks) noexcept;
};

/// Scoped RAII phase span: records the enclosing scope's duration into
/// the phase's histogram. Use through CHAMELEON_PHASE_SPAN, which
/// compiles away under CHAMELEON_NO_STATS.
class PhaseSpan {
 public:
  explicit PhaseSpan(WritePhase phase) noexcept
      : phase_(phase), start_(CycleClock::Now()) {}
  ~PhaseSpan() {
    PhaseHistogram(phase_).Record(
        CycleClock::ToNanos(CycleClock::Now() - start_));
  }

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  WritePhase phase_;
  uint64_t start_;
};

}  // namespace chameleon::obs

#define CHAMELEON_PP_CAT2(a, b) a##b
#define CHAMELEON_PP_CAT(a, b) CHAMELEON_PP_CAT2(a, b)

// Instrumentation macro: times the rest of the enclosing scope into
// `phase` (an unqualified WritePhase enumerator). Under
// CHAMELEON_NO_STATS it expands to nothing.
#ifndef CHAMELEON_NO_STATS
#define CHAMELEON_PHASE_SPAN(phase)                               \
  ::chameleon::obs::PhaseSpan CHAMELEON_PP_CAT(                   \
      chameleon_phase_span_, __LINE__)(                           \
      ::chameleon::obs::WritePhase::phase)
#else
#define CHAMELEON_PHASE_SPAN(phase) ((void)0)
#endif

#endif  // CHAMELEON_OBS_PHASE_TIMER_H_
