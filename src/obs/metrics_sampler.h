#ifndef CHAMELEON_OBS_METRICS_SAMPLER_H_
#define CHAMELEON_OBS_METRICS_SAMPLER_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/heatmap.h"
#include "src/obs/phase_timer.h"
#include "src/obs/stats.h"
#include "src/util/periodic_worker.h"

namespace chameleon::obs {

// --- Active index source ----------------------------------------------------
//
// The sampler polls whatever index is currently being driven through
// one global source: the workload driver registers the replayed index's
// heat and write-contention snapshots together for the duration of each
// Replay()/RunOpenLoop() (ScopedIndexSource), so every bench harness
// gets per-tick heatmaps without its own wiring. The callbacks run
// under the source mutex: once a scope's destructor returns, no further
// invocation can touch its index. Closing a scope first ticks every
// running MetricsSampler, so a replay shorter than the interval still
// leaves its heat in the series; with no sampler running that costs one
// atomic load.

/// RAII registration of one index's snapshots as the active source,
/// nesting-safe: restores the previously active pair on destruction.
/// `heat` feeds each tick's "heat" field, `contention`
/// (KvIndex::WriteContentionSnapshot) its "contention" field.
class ScopedIndexSource {
 public:
  ScopedIndexSource(std::function<Heatmap()> heat,
                    std::function<Heatmap()> contention);
  ~ScopedIndexSource();

  ScopedIndexSource(const ScopedIndexSource&) = delete;
  ScopedIndexSource& operator=(const ScopedIndexSource&) = delete;

 private:
  std::function<Heatmap()> previous_heat_;
  std::function<Heatmap()> previous_contention_;
};

// --- Time-series sampler ----------------------------------------------------

/// Point-in-time digest of one phase histogram.
struct HistSample {
  uint64_t count = 0;        // cumulative samples recorded
  uint64_t delta_count = 0;  // recorded since the previous tick
  double mean_ns = 0.0;      // cumulative (percentiles are not deltable)
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double max_ns = 0.0;
};

/// Units embedded per tick in "heat" and "contention" (by delta).
inline constexpr size_t kSampleTopK = 8;

/// One sampler tick: monotonic counter totals plus per-tick deltas,
/// a digest of every phase histogram (indexed by WritePhase), and the
/// top-K hottest units by per-tick heat delta (hottest first).
struct MetricsSample {
  uint64_t tick = 0;
  int64_t ts_ns = 0;  // steady-clock timestamp of the capture
  int64_t dt_ns = 0;  // elapsed since the previous tick (0 for tick 0)
  CounterSnapshot totals{};
  CounterSnapshot deltas{};
  std::array<HistSample, kNumWritePhases> hists{};
  Heatmap hot;
  /// Top-K units by per-tick writer-lock-wait delta; empty when no
  /// source is registered or nothing contended this tick.
  Heatmap contention;
};

struct SamplerOptions {
  /// Tick period of the background worker.
  std::chrono::milliseconds interval{100};
  /// Bounded time-series ring: oldest ticks are dropped past this.
  size_t ring_capacity = 4096;
};

/// Background time-series sampler (DESIGN.md §11): a PeriodicWorker
/// snapshots every StatsRegistry counter, every WritePhase histogram,
/// and the active index source once per interval into a bounded
/// in-memory ring. The ring is flushed as JSONL (`--series=PATH` in
/// every bench harness) and current values are renderable as
/// Prometheus text exposition for the future TCP front-end to scrape.
///
/// Capture cost is O(counters + histogram buckets + units) per tick on
/// the worker thread only; the sampled workload pays nothing beyond
/// its existing relaxed-atomic instrumentation. Thread-safe: Start/
/// Stop/SampleNow/Snapshot may race arbitrarily.
class MetricsSampler {
 public:
  explicit MetricsSampler(SamplerOptions options = {});
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Starts the background worker (idempotent).
  void Start();
  /// Stops the worker, then captures one final tick, so even a run
  /// shorter than one interval yields a complete series. Idempotent.
  void Stop();

  /// Captures one tick synchronously (tests; usable without Start).
  void SampleNow();

  /// Ticks ever captured (monotonic; >= retained when the ring wrapped).
  size_t total_ticks() const;
  /// Ticks currently retained in the ring.
  size_t retained() const;

  /// The retained series, oldest first.
  std::vector<MetricsSample> Snapshot() const;

  /// Writes the retained series as JSONL, one tick per line:
  ///   {"tick":3,"ts_ns":...,"dt_ns":...,"counters":{...},
  ///    "deltas":{...},"hists":{"phase_wal_append":{...},...},
  ///    "heat":[...],"contention":[...]}
  /// "counters" holds every counter's monotonic total; "deltas" only
  /// the counters that moved this tick; "hists" every phase, touched
  /// or not, as "phase_<name>"; "heat"/"contention" the top-K units by
  /// per-tick delta, hottest first. Returns false on I/O error.
  bool WriteJsonl(const std::string& path) const;

  /// Renders the *current* (live, not ring) state of every counter and
  /// phase histogram in Prometheus text exposition format.
  static std::string RenderProm();

 private:
  /// Captures one tick; caller holds mu_.
  void CaptureLocked();
  static void AppendSampleJson(const MetricsSample& s, std::string* out);

  const SamplerOptions options_;

  mutable std::mutex mu_;
  std::vector<MetricsSample> ring_;  // ring_[tick % capacity]
  size_t total_ticks_ = 0;
  int64_t last_ts_ns_ = 0;
  CounterSnapshot last_totals_{};
  std::array<uint64_t, kNumWritePhases> last_hist_counts_{};
  Heatmap last_heat_;
  Heatmap last_contention_;

  PeriodicWorker worker_;
};

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_METRICS_SAMPLER_H_
