#include "src/obs/metrics_sampler.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "src/util/timer.h"

namespace chameleon::obs {

// --- Active index source ----------------------------------------------------

namespace {

std::mutex g_source_mu;
std::function<Heatmap()> g_heat_source;
std::function<Heatmap()> g_contention_source;

// Started samplers; ticked under g_running_mu, which Stop() takes to
// leave the list, so a listed sampler outlives its close-time tick.
std::mutex g_running_mu;
std::vector<MetricsSampler*> g_running;
std::atomic<size_t> g_num_running{0};

/// One tick on every running sampler, taken while the closing scope's
/// source is still registered.
void SampleRunningSamplers() {
  if (g_num_running.load(std::memory_order_acquire) == 0) return;
  std::lock_guard<std::mutex> lock(g_running_mu);
  for (MetricsSampler* sampler : g_running) sampler->SampleNow();
}

/// Snapshots the active source; both maps empty when none is
/// registered. Invoked under the mutex: a ScopedIndexSource destructor
/// cannot return while a snapshot of its index is still in flight.
void ReadActiveSource(Heatmap* heat, Heatmap* contention) {
  std::lock_guard<std::mutex> lock(g_source_mu);
  *heat = g_heat_source ? g_heat_source() : Heatmap{};
  *contention = g_contention_source ? g_contention_source() : Heatmap{};
}

}  // namespace

ScopedIndexSource::ScopedIndexSource(std::function<Heatmap()> heat,
                                     std::function<Heatmap()> contention) {
  std::lock_guard<std::mutex> lock(g_source_mu);
  previous_heat_ = std::exchange(g_heat_source, std::move(heat));
  previous_contention_ =
      std::exchange(g_contention_source, std::move(contention));
}

ScopedIndexSource::~ScopedIndexSource() {
  SampleRunningSamplers();
  std::lock_guard<std::mutex> lock(g_source_mu);
  g_heat_source = std::move(previous_heat_);
  g_contention_source = std::move(previous_contention_);
}

// --- MetricsSampler ---------------------------------------------------------

MetricsSampler::MetricsSampler(SamplerOptions options) : options_(options) {
  ring_.reserve(std::min<size_t>(options_.ring_capacity, 1024));
}

MetricsSampler::~MetricsSampler() { Stop(); }

void MetricsSampler::Start() {
  // Registration shares g_running_mu with Stop's deregistration, so a
  // racing Start/Stop pair leaves the registry matching the worker.
  std::lock_guard<std::mutex> running_lock(g_running_mu);
  if (!worker_.Start(options_.interval, [this] { SampleNow(); })) return;
  g_running.push_back(this);
  g_num_running.fetch_add(1, std::memory_order_release);
}

void MetricsSampler::Stop() {
  {
    std::lock_guard<std::mutex> running_lock(g_running_mu);
    if (std::erase(g_running, this) == 0) return;
    g_num_running.fetch_sub(1, std::memory_order_release);
  }
  worker_.Stop();
  // Final tick: a run shorter than one interval still yields a series,
  // and the last line always reflects end-of-run totals.
  SampleNow();
}

void MetricsSampler::SampleNow() {
  std::lock_guard<std::mutex> lock(mu_);
  CaptureLocked();
}

void MetricsSampler::CaptureLocked() {
  MetricsSample s;
  s.tick = total_ticks_;
  s.ts_ns = NowNanos();
  s.dt_ns = total_ticks_ == 0 ? 0 : s.ts_ns - last_ts_ns_;
  s.totals = StatsRegistry::Get().Snapshot();
  for (size_t i = 0; i < kNumCounters; ++i) {
    // Saturating: a concurrent StatsRegistry::Reset can shrink totals.
    s.deltas[i] =
        s.totals[i] - std::min(last_totals_[i], s.totals[i]);
  }

  for (size_t p = 0; p < kNumWritePhases; ++p) {
    const LatencyHistogram& hist = PhaseHistogram(static_cast<WritePhase>(p));
    HistSample& hs = s.hists[p];
    hs.count = hist.count();
    // Saturating, like the counter deltas: a ResetPhaseHistograms
    // between ticks shrinks the count.
    hs.delta_count = hs.count - std::min(last_hist_counts_[p], hs.count);
    hs.mean_ns = hist.MeanNanos();
    hs.p50_ns = hist.PercentileNanos(50);
    hs.p99_ns = hist.PercentileNanos(99);
    hs.max_ns = hist.MaxNanos();
    last_hist_counts_[p] = hs.count;
  }

  Heatmap heat, contention;
  ReadActiveSource(&heat, &contention);
  s.hot = TopKHottest(HeatmapDelta(heat, last_heat_), kSampleTopK);
  s.contention =
      TopKHottest(HeatmapDelta(contention, last_contention_), kSampleTopK);

  last_ts_ns_ = s.ts_ns;
  last_totals_ = s.totals;
  last_heat_ = std::move(heat);
  last_contention_ = std::move(contention);

  if (ring_.size() < options_.ring_capacity) {
    ring_.push_back(std::move(s));
  } else if (!ring_.empty()) {
    ring_[total_ticks_ % options_.ring_capacity] = std::move(s);
  }
  ++total_ticks_;
}

size_t MetricsSampler::total_ticks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ticks_;
}

size_t MetricsSampler::retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::vector<MetricsSample> MetricsSampler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricsSample> out;
  out.reserve(ring_.size());
  if (total_ticks_ <= options_.ring_capacity) {
    out = ring_;
  } else {
    const size_t start = total_ticks_ % options_.ring_capacity;
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(start + i) % ring_.size()]);
    }
  }
  return out;
}

void MetricsSampler::AppendSampleJson(const MetricsSample& s,
                                      std::string* out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"tick\":%llu,\"ts_ns\":%lld,\"dt_ns\":%lld,\"counters\":{",
                static_cast<unsigned long long>(s.tick),
                static_cast<long long>(s.ts_ns),
                static_cast<long long>(s.dt_ns));
  *out += buf;
  for (size_t i = 0; i < kNumCounters; ++i) {
    const std::string_view name = CounterName(static_cast<Counter>(i));
    std::snprintf(buf, sizeof(buf), "%s\"%.*s\":%llu", i == 0 ? "" : ",",
                  static_cast<int>(name.size()), name.data(),
                  static_cast<unsigned long long>(s.totals[i]));
    *out += buf;
  }
  *out += "},\"deltas\":{";
  bool first = true;
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (s.deltas[i] == 0) continue;
    const std::string_view name = CounterName(static_cast<Counter>(i));
    std::snprintf(buf, sizeof(buf), "%s\"%.*s\":%llu", first ? "" : ",",
                  static_cast<int>(name.size()), name.data(),
                  static_cast<unsigned long long>(s.deltas[i]));
    *out += buf;
    first = false;
  }
  *out += "},\"hists\":{";
  for (size_t p = 0; p < kNumWritePhases; ++p) {
    const HistSample& hs = s.hists[p];
    const std::string_view name = WritePhaseName(static_cast<WritePhase>(p));
    std::snprintf(buf, sizeof(buf),
                  "%s\"phase_%.*s\":{\"count\":%llu,\"delta_count\":%llu,"
                  "\"mean_ns\":%.6g,\"p50_ns\":%.6g,\"p99_ns\":%.6g,"
                  "\"max_ns\":%.6g}",
                  p == 0 ? "" : ",", static_cast<int>(name.size()),
                  name.data(), static_cast<unsigned long long>(hs.count),
                  static_cast<unsigned long long>(hs.delta_count),
                  hs.mean_ns, hs.p50_ns, hs.p99_ns, hs.max_ns);
    *out += buf;
  }
  *out += "},\"heat\":";
  *out += HeatmapJson(s.hot);
  *out += ",\"contention\":";
  *out += HeatmapJson(s.contention);
  *out += "}\n";
}

bool MetricsSampler::WriteJsonl(const std::string& path) const {
  const std::vector<MetricsSample> series = Snapshot();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string line;
  bool ok = true;
  for (const MetricsSample& s : series) {
    line.clear();
    AppendSampleJson(s, &line);
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
      ok = false;
      break;
    }
  }
  return (std::fclose(f) == 0) && ok;
}

std::string MetricsSampler::RenderProm() {
  std::string out;
  char buf[256];
  const CounterSnapshot snap = StatsRegistry::Get().Snapshot();
  for (size_t i = 0; i < kNumCounters; ++i) {
    const std::string_view name = CounterName(static_cast<Counter>(i));
    std::snprintf(buf, sizeof(buf),
                  "# TYPE chameleon_%.*s_total counter\n"
                  "chameleon_%.*s_total %llu\n",
                  static_cast<int>(name.size()), name.data(),
                  static_cast<int>(name.size()), name.data(),
                  static_cast<unsigned long long>(snap[i]));
    out += buf;
  }
  for (size_t p = 0; p < kNumWritePhases; ++p) {
    const LatencyHistogram& hist = PhaseHistogram(static_cast<WritePhase>(p));
    const std::string name =
        "phase_" + std::string(WritePhaseName(static_cast<WritePhase>(p)));
    const uint64_t count = hist.count();
    std::snprintf(
        buf, sizeof(buf),
        "# TYPE chameleon_%s_ns summary\n"
        "chameleon_%s_ns{quantile=\"0.5\"} %.6g\n"
        "chameleon_%s_ns{quantile=\"0.99\"} %.6g\n",
        name.c_str(), name.c_str(), hist.PercentileNanos(50), name.c_str(),
        hist.PercentileNanos(99));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "chameleon_%s_ns_sum %.6g\n"
                  "chameleon_%s_ns_count %llu\n",
                  name.c_str(), hist.MeanNanos() * static_cast<double>(count),
                  name.c_str(), static_cast<unsigned long long>(count));
    out += buf;
  }
  return out;
}

}  // namespace chameleon::obs
