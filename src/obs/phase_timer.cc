#include "src/obs/phase_timer.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

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

/// All phase histograms, indexed by WritePhase.
LatencyHistogram* Storage() {
  static LatencyHistogram hist[kNumWritePhases];
  return hist;
}

#if defined(__x86_64__) || defined(_M_X64)

uint64_t RawTicks() noexcept { return __rdtsc(); }

/// Nanoseconds per TSC tick, measured once against the steady clock.
/// Modern x86-64 TSCs are invariant (constant rate across cores and
/// power states), so one global ratio is valid process-wide.
double NanosPerTick() noexcept {
  static const double ratio = [] {
    const uint64_t t0 = RawTicks();
    const int64_t n0 = NowNanos();
    // Spin ~2ms: long enough that clock-read latency is noise.
    while (NowNanos() - n0 < 2'000'000) {
    }
    const uint64_t t1 = RawTicks();
    const int64_t n1 = NowNanos();
    return t1 > t0 ? static_cast<double>(n1 - n0) /
                         static_cast<double>(t1 - t0)
                   : 1.0;
  }();
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
  return Storage()[static_cast<size_t>(p)];
}

void ResetPhaseHistograms() {
  for (size_t i = 0; i < kNumWritePhases; ++i) {
    Storage()[i].Clear();
  }
}

}  // namespace chameleon::obs
