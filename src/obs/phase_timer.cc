#include "src/obs/phase_timer.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

#include <atomic>

#include "src/util/timer.h"

namespace chameleon::obs {

std::string_view WritePhaseName(WritePhase p) {
  switch (p) {
    case WritePhase::kWalAppend: return "wal_append";
    case WritePhase::kGroupCommitWait: return "group_commit_wait";
    case WritePhase::kFsync: return "fsync";
    case WritePhase::kApply: return "apply";
    case WritePhase::kRetrainBlock: return "retrain_block";
    case WritePhase::kWriteTotal: return "write_total";
    case WritePhase::kMergeScan: return "merge_scan";
    case WritePhase::kMergeWrite: return "merge_write";
    case WritePhase::kMergeInstall: return "merge_install";
    case WritePhase::kCount: break;
  }
  return "unknown";
}

namespace {

/// All phase histograms, indexed by WritePhase. Constant-initialized,
/// so no span waits on their construction.
constinit LatencyHistogram phase_histograms[kNumWritePhases];

#if defined(__x86_64__) || defined(_M_X64)

uint64_t RawTicks() noexcept { return __rdtsc(); }

/// The TSC and the steady clock, read together when the library loads.
struct Anchor {
  uint64_t ticks;
  int64_t nanos;
};
const Anchor kAnchor{RawTicks(), NowNanos()};

/// The ratio once the anchor is old enough that clock-read latency is
/// noise (0 until then).
std::atomic<double> settled_ratio{0.0};

/// Nanoseconds per TSC tick, measured against the load-time anchor, so
/// no call spins or waits. Until the ratio settles, each call reads
/// both clocks once more and divides by the anchor's age; a span it
/// converts is no older than the anchor, so the span's error stays
/// within one clock-read latency. Modern x86-64 TSCs are invariant
/// (constant rate across cores and power states), so one global ratio
/// is valid process-wide.
double NanosPerTick() noexcept {
  const double settled = settled_ratio.load(std::memory_order_relaxed);
  if (settled > 0.0) return settled;
  const uint64_t ticks = RawTicks();
  const int64_t nanos = NowNanos();
  if (ticks <= kAnchor.ticks) return 1.0;
  const double ratio = static_cast<double>(nanos - kAnchor.nanos) /
                       static_cast<double>(ticks - kAnchor.ticks);
  if (nanos - kAnchor.nanos >= 10'000'000) {
    settled_ratio.store(ratio, std::memory_order_relaxed);
  }
  return ratio;
}

#else

uint64_t RawTicks() noexcept { return static_cast<uint64_t>(NowNanos()); }
double NanosPerTick() noexcept { return 1.0; }

#endif

}  // namespace

uint64_t CycleClock::Now() noexcept { return RawTicks(); }

int64_t CycleClock::ToNanos(uint64_t ticks) noexcept {
  return static_cast<int64_t>(static_cast<double>(ticks) * NanosPerTick());
}

LatencyHistogram& PhaseHistogram(WritePhase p) {
  return phase_histograms[static_cast<size_t>(p)];
}

void ResetPhaseHistograms() {
  for (size_t i = 0; i < kNumWritePhases; ++i) {
    phase_histograms[i].Clear();
  }
}

}  // namespace chameleon::obs
