#ifndef CHAMELEON_OBS_METRICS_SAMPLER_H_
#define CHAMELEON_OBS_METRICS_SAMPLER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/heatmap.h"
#include "src/obs/latency_histogram.h"
#include "src/obs/stats.h"

namespace chameleon::obs {

/// Process-wide registry of named LatencyHistograms the sampler and the
/// Prometheus renderer enumerate. Entries are registered once (program
/// lifetime — the phase histograms and any future long-lived ones) and
/// never removed; registration and listing are mutex-protected, reads
/// of the histograms themselves follow LatencyHistogram's concurrent
/// read contract.
class HistogramRegistry {
 public:
  static HistogramRegistry& Get();

  /// Registers `hist` under `name` (stable snake_case; duplicate names
  /// are ignored so re-entrant static init stays safe). `hist` must
  /// outlive the process's last sampler tick.
  void Register(std::string name, const LatencyHistogram* hist);

  std::vector<std::pair<std::string, const LatencyHistogram*>> List() const;

 private:
  HistogramRegistry() = default;

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, const LatencyHistogram*>> entries_;
};

// --- Active heatmap source --------------------------------------------------
//
// The sampler polls whatever index is currently being driven through a
// global source callback. The workload driver registers the replayed
// index for the duration of each Replay() (ScopedHeatmapSource), so
// every bench harness gets per-tick heatmaps without its own wiring.
// The callback is invoked under the source mutex: once a scope's
// destructor returns, no further invocations can touch its index.
// Closing a scope first ticks every running MetricsSampler, so a replay
// shorter than the interval still leaves its heat in the series; with
// no sampler running that costs one atomic load.

/// The current source's snapshot; empty when no source is registered.
Heatmap ReadActiveHeatmap();

/// RAII registration, nesting-safe: restores the previously active
/// source on destruction.
class ScopedHeatmapSource {
 public:
  explicit ScopedHeatmapSource(std::function<Heatmap()> source);
  ~ScopedHeatmapSource();

  ScopedHeatmapSource(const ScopedHeatmapSource&) = delete;
  ScopedHeatmapSource& operator=(const ScopedHeatmapSource&) = delete;

 private:
  std::function<Heatmap()> previous_;
};

// Parallel source for the per-unit *write-contention* map
// (KvIndex::WriteContentionSnapshot): same registration/polling
// discipline as the heatmap source, surfaced per tick as the
// "contention" JSONL field. The driver registers it alongside the
// heatmap source whenever the replayed stack reports contention.

/// The current contention source's snapshot; empty when none registered.
Heatmap ReadActiveContention();

/// RAII registration for the contention source, nesting-safe.
class ScopedContentionSource {
 public:
  explicit ScopedContentionSource(std::function<Heatmap()> source);
  ~ScopedContentionSource();

  ScopedContentionSource(const ScopedContentionSource&) = delete;
  ScopedContentionSource& operator=(const ScopedContentionSource&) = delete;

 private:
  std::function<Heatmap()> previous_;
};

// --- Time-series sampler ----------------------------------------------------

/// Point-in-time digest of one registered histogram.
struct HistSample {
  uint64_t count = 0;        // cumulative samples recorded
  uint64_t delta_count = 0;  // recorded since the previous tick
  double mean_ns = 0.0;      // cumulative (percentiles are not deltable)
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double max_ns = 0.0;
};

/// One sampler tick: monotonic counter totals plus per-tick deltas,
/// digests of every registered histogram, and the top-K hottest units
/// by per-tick heat delta (hottest first).
struct MetricsSample {
  uint64_t tick = 0;
  int64_t ts_ns = 0;  // steady-clock timestamp of the capture
  int64_t dt_ns = 0;  // elapsed since the previous tick (0 for tick 0)
  CounterSnapshot totals{};
  CounterSnapshot deltas{};
  std::vector<std::pair<std::string, HistSample>> hists;
  Heatmap hot;
  /// Top-K units by per-tick writer-lock-wait delta (contention source);
  /// empty when no source is registered or nothing contended this tick.
  Heatmap contention;
};

struct SamplerOptions {
  /// Tick period of the background thread.
  std::chrono::milliseconds interval{100};
  /// Bounded time-series ring: oldest ticks are dropped past this.
  size_t ring_capacity = 4096;
  /// Hottest units embedded per tick (by per-tick heat delta).
  size_t heatmap_top_k = 8;
};

/// Background time-series sampler (DESIGN.md §11): a thread snapshots
/// every StatsRegistry counter, every HistogramRegistry histogram, and
/// the active heatmap source once per interval into a bounded in-memory
/// ring. The ring is flushed as JSONL (`--series=PATH` in every bench
/// harness) and current values are renderable as Prometheus text
/// exposition for the future TCP front-end to scrape.
///
/// Capture cost is O(counters + histogram buckets + units) per tick on
/// the sampler thread only; the sampled workload pays nothing beyond
/// its existing relaxed-atomic instrumentation. Thread-safe: Start/
/// Stop/SampleNow/Snapshot may race arbitrarily (one mutex inside).
class MetricsSampler {
 public:
  explicit MetricsSampler(SamplerOptions options = {});
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Starts the background thread (idempotent).
  void Start();
  /// Stops the thread after capturing one final tick, so even a run
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
  ///    "deltas":{...},"hists":{"phase_fsync":{...}},"heat":[...]}
  /// "counters" holds every counter's monotonic total; "deltas" only
  /// the counters that moved this tick; "heat" the top-K units by
  /// per-tick delta, hottest first. Returns false on I/O error.
  bool WriteJsonl(const std::string& path) const;

  /// Renders the *current* (live, not ring) state of every counter and
  /// registered histogram in Prometheus text exposition format.
  static std::string RenderProm();

 private:
  void Loop();
  /// Captures one tick; caller holds mu_.
  void CaptureLocked();
  static void AppendSampleJson(const MetricsSample& s, std::string* out);

  const SamplerOptions options_;

  mutable std::mutex mu_;
  std::vector<MetricsSample> ring_;  // ring_[tick % capacity]
  size_t total_ticks_ = 0;
  int64_t last_ts_ns_ = 0;
  CounterSnapshot last_totals_{};
  std::vector<std::pair<std::string, uint64_t>> last_hist_counts_;
  Heatmap last_heat_;
  Heatmap last_contention_;

  std::thread thread_;
  std::mutex thread_mu_;  // guards thread_/stop_ against Start/Stop races
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
};

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_METRICS_SAMPLER_H_
