// Tests for the run-time telemetry pipeline (DESIGN.md §11): the
// MetricsSampler time series (deltas, ring bounds, JSONL, Prometheus
// rendering), write-path phase spans and their additivity over a real
// durable stack, and per-unit heatmaps (pure helpers plus hot-unit
// identification through Chameleon / Sharded / Durable stacks). The
// concurrent sampler case doubles as a TSan target (see
// .github/workflows/ci.yml).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/index_factory.h"
#include "src/data/dataset.h"
#include "src/obs/heatmap.h"
#include "src/obs/metrics_sampler.h"
#include "src/obs/phase_timer.h"
#include "src/obs/stats.h"
#include "src/workload/driver.h"
#include "src/workload/workload_spec.h"

namespace chameleon::obs {
namespace {

// --- Heatmap pure helpers (instrumentation-independent) ---------------------

TEST(HeatmapTest, HottestUnitPicksMaxAndNposWhenCold) {
  Heatmap map = {{0, 10, 5, 0}, {10, 20, 80, 16}, {20, 30, 40, 0}};
  EXPECT_EQ(HottestUnit(map), 1u);

  const Heatmap cold = {{0, 10, 0, 0}, {10, 20, 0, 0}};
  EXPECT_EQ(HottestUnit(cold), cold.size());
  EXPECT_EQ(HottestUnit({}), 0u);
}

TEST(HeatmapTest, TopKOrdersByHeatAndExcludesCold) {
  Heatmap map = {{0, 1, 8, 0}, {1, 2, 0, 0}, {2, 3, 96, 0}, {3, 4, 0, 24}};
  const Heatmap top = TopKHottest(map, 3);
  ASSERT_EQ(top.size(), 3u);  // the cold unit never appears
  EXPECT_EQ(top[0].lo, 2u);
  EXPECT_EQ(top[1].lo, 3u);
  EXPECT_EQ(top[2].lo, 0u);
  EXPECT_EQ(TopKHottest(map, 0).size(), 0u);
  EXPECT_EQ(TopKHottest(map, 100).size(), 3u);
}

TEST(HeatmapTest, DeltaSubtractsPositionallyAndResetsOnRepartition) {
  const Heatmap prev = {{0, 10, 8, 0}, {10, 20, 16, 8}};
  Heatmap cur = {{0, 10, 24, 0}, {10, 20, 16, 32}};
  Heatmap delta = HeatmapDelta(cur, prev);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0].reads, 16u);
  EXPECT_EQ(delta[1].reads, 0u);
  EXPECT_EQ(delta[1].writes, 24u);

  // A rebuild re-partitioned the units: intervals moved, counters
  // restarted. The moved entry reports its absolute counts.
  cur = {{0, 15, 8, 0}, {15, 20, 8, 8}};
  delta = HeatmapDelta(cur, prev);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0].reads, 8u);
  EXPECT_EQ(delta[1].writes, 8u);

  // Counter reset at stable intervals (full rebuild without a
  // repartition) must not underflow.
  cur = {{0, 10, 2, 0}, {10, 20, 0, 0}};
  delta = HeatmapDelta(cur, prev);
  EXPECT_EQ(delta[0].reads, 0u);
  EXPECT_EQ(delta[1].writes, 0u);
}

TEST(HeatmapTest, JsonRendersEveryEntry) {
  const std::string json = HeatmapJson({{1, 100, 8, 16}});
  EXPECT_NE(json.find("\"lo\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hi\":100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reads\":8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"writes\":16"), std::string::npos) << json;
  EXPECT_EQ(HeatmapJson({}), "[]");
}

// --- Heatmaps through real index stacks -------------------------------------

std::vector<KeyValue> SequentialData(size_t n) {
  std::vector<KeyValue> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = {static_cast<Key>(i * 10), static_cast<Value>(i)};
  }
  return data;
}

TEST(HeatmapTest, ConcentratedLookupsLightUpTheHotUnit) {
  std::unique_ptr<KvIndex> index = MakeIndex("Chameleon");
  ASSERT_NE(index, nullptr);
  const size_t n = 40'000;
  index->BulkLoad(SequentialData(n));

  const Heatmap before = index->HeatmapSnapshot();
  ASSERT_FALSE(before.empty());

  // Hammer one key far from the key-space midpoint; with 1-in-8
  // sampling, 8000 hits land ~1000 samples in its unit.
  const Key hot_key = static_cast<Key>((n / 10) * 10);  // 10% into the space
  Value v;
  for (int i = 0; i < 8000; ++i) {
    ASSERT_TRUE(index->Lookup(hot_key, &v));
  }

  const Heatmap after = index->HeatmapSnapshot();
  ASSERT_EQ(after.size(), before.size());
#ifdef CHAMELEON_NO_STATS
  for (const UnitHeat& u : after) EXPECT_EQ(u.heat(), 0u);
#else
  const size_t hottest = HottestUnit(after);
  ASSERT_LT(hottest, after.size());
  EXPECT_LE(after[hottest].lo, hot_key);
  EXPECT_GT(after[hottest].hi, hot_key);
  EXPECT_GE(after[hottest].reads, 900u * HeatSampler::kWeight / 8);
#endif
}

TEST(HeatmapTest, WritesCountSeparatelyFromReads) {
  std::unique_ptr<KvIndex> index = MakeIndex("Chameleon");
  ASSERT_NE(index, nullptr);
  index->BulkLoad(SequentialData(10'000));
  for (Key k = 1; k <= 4000; ++k) {
    index->Insert(k * 25 + 1, k);  // keys absent from the loaded set
  }
  uint64_t reads = 0, writes = 0;
  for (const UnitHeat& u : index->HeatmapSnapshot()) {
    reads += u.reads;
    writes += u.writes;
  }
#ifdef CHAMELEON_NO_STATS
  EXPECT_EQ(writes, 0u);
#else
  EXPECT_GT(writes, 0u);
  // Pure inserts never touch the read counters.
  EXPECT_EQ(reads, 0u);
#endif
}

TEST(HeatmapTest, ShardedConcatenatesInKeyOrderAndDurableDelegates) {
  const std::string dir =
      ::testing::TempDir() + "/telemetry_heat_delegate";
  std::filesystem::remove_all(dir);
  std::unique_ptr<KvIndex> index =
      MakeIndex("Durable(" + dir + "):Sharded4:Chameleon");
  ASSERT_NE(index, nullptr);
  index->BulkLoad(SequentialData(20'000));

  const Heatmap map = index->HeatmapSnapshot();
  ASSERT_FALSE(map.empty());
  // Shard concatenation preserves global key order.
  for (size_t i = 1; i < map.size(); ++i) {
    EXPECT_LE(map[i - 1].lo, map[i].lo);
  }
  index.reset();
  std::filesystem::remove_all(dir);
}

TEST(HeatmapTest, BaselineIndexesReportEmpty) {
  std::unique_ptr<KvIndex> index = MakeIndex("B+Tree");
  ASSERT_NE(index, nullptr);
  index->BulkLoad(SequentialData(1000));
  EXPECT_TRUE(index->HeatmapSnapshot().empty());
}

// --- Phase spans ------------------------------------------------------------

TEST(PhaseTimerTest, NamesAreUniqueAndStable) {
  std::vector<std::string_view> names;
  for (size_t i = 0; i < kNumWritePhases; ++i) {
    names.push_back(WritePhaseName(static_cast<WritePhase>(i)));
  }
  for (std::string_view name : names) {
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(std::count(names.begin(), names.end(), name), 1) << name;
  }
  EXPECT_EQ(WritePhaseName(WritePhase::kWalAppend), "wal_append");
  EXPECT_EQ(WritePhaseName(WritePhase::kWriteTotal), "write_total");
}

TEST(PhaseTimerTest, CycleClockMeasuresSleepsSanely) {
  const uint64_t t0 = CycleClock::Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const int64_t elapsed = CycleClock::ToNanos(CycleClock::Now() - t0);
  // Generous bounds: sleep can oversleep under load, never undersleep.
  EXPECT_GE(elapsed, 15'000'000);
  EXPECT_LT(elapsed, 5'000'000'000);
}

TEST(PhaseTimerTest, SpanRecordsIntoThePhaseHistogram) {
#ifdef CHAMELEON_NO_STATS
  GTEST_SKIP() << "spans compile to no-ops under CHAMELEON_NO_STATS";
#else
  ResetPhaseHistograms();
  {
    CHAMELEON_PHASE_SPAN(kApply);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const LatencyHistogram& h = PhaseHistogram(WritePhase::kApply);
  ASSERT_EQ(h.count(), 1u);
  EXPECT_GE(h.MeanNanos(), 1e6);
  EXPECT_EQ(PhaseHistogram(WritePhase::kFsync).count(), 0u);
  ResetPhaseHistograms();
  EXPECT_EQ(h.count(), 0u);
#endif
}

// The acceptance contract: per-phase histograms from a real durable
// write stream sum consistently with the end-to-end write latency.
TEST(PhaseBreakdownTest, DurableWritePhasesSumConsistently) {
#ifdef CHAMELEON_NO_STATS
  GTEST_SKIP() << "spans compile to no-ops under CHAMELEON_NO_STATS";
#else
  const std::string dir = ::testing::TempDir() + "/telemetry_phases";
  std::filesystem::remove_all(dir);
  std::unique_ptr<KvIndex> index =
      MakeIndex("Durable(" + dir + ",fsync=everyN,n=64):Chameleon");
  ASSERT_NE(index, nullptr);
  index->BulkLoad(SequentialData(10'000));

  ResetPhaseHistograms();
  const size_t writes = 4000;
  for (Key k = 1; k <= writes; ++k) {
    ASSERT_TRUE(index->Insert(k * 25 + 3, k));
  }

  const LatencyHistogram& total = PhaseHistogram(WritePhase::kWriteTotal);
  const LatencyHistogram& wal = PhaseHistogram(WritePhase::kWalAppend);
  const LatencyHistogram& commit =
      PhaseHistogram(WritePhase::kGroupCommitWait);
  const LatencyHistogram& apply = PhaseHistogram(WritePhase::kApply);

  // Every write passes through total, wal-append, and apply exactly
  // once; only every-64th append leads a commit.
  EXPECT_EQ(total.count(), writes);
  EXPECT_EQ(wal.count(), writes);
  EXPECT_EQ(apply.count(), writes);
  EXPECT_EQ(commit.count(), writes / 64);

  // Count-weighted additivity: the three phases never sum to more than
  // the whole (small slack for clock granularity), and the durable
  // phases alone account for a nonzero share.
  const double additive =
      wal.MeanNanos() * static_cast<double>(wal.count()) +
      commit.MeanNanos() * static_cast<double>(commit.count()) +
      apply.MeanNanos() * static_cast<double>(apply.count());
  const double whole =
      total.MeanNanos() * static_cast<double>(total.count());
  EXPECT_GT(additive, 0.0);
  EXPECT_LE(additive, whole * 1.10);

  ResetPhaseHistograms();
  index.reset();
  std::filesystem::remove_all(dir);
#endif
}

// --- MetricsSampler ---------------------------------------------------------

TEST(MetricsSamplerTest, TicksCaptureMonotonicTotalsAndDeltas) {
  StatsRegistry::Get().Reset();
  MetricsSampler sampler;
  StatsRegistry::Get().Add(Counter::kLookups, 10);
  sampler.SampleNow();
  StatsRegistry::Get().Add(Counter::kLookups, 5);
  sampler.SampleNow();

  const std::vector<MetricsSample> series = sampler.Snapshot();
  ASSERT_EQ(series.size(), 2u);
  const size_t c = static_cast<size_t>(Counter::kLookups);
  EXPECT_EQ(series[0].tick, 0u);
  EXPECT_EQ(series[0].totals[c], 10u);
  EXPECT_EQ(series[0].deltas[c], 10u);
  EXPECT_EQ(series[1].totals[c], 15u);
  EXPECT_EQ(series[1].deltas[c], 5u);
  EXPECT_GE(series[1].ts_ns, series[0].ts_ns);
  EXPECT_GE(series[1].dt_ns, 0);
  StatsRegistry::Get().Reset();
}

TEST(MetricsSamplerTest, RingIsBoundedAndKeepsNewestTicks) {
  SamplerOptions options;
  options.ring_capacity = 4;
  MetricsSampler sampler(options);
  for (int i = 0; i < 10; ++i) sampler.SampleNow();
  EXPECT_EQ(sampler.total_ticks(), 10u);
  EXPECT_EQ(sampler.retained(), 4u);
  const std::vector<MetricsSample> series = sampler.Snapshot();
  ASSERT_EQ(series.size(), 4u);
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series[i].tick, 6 + i);  // oldest first, newest retained
  }
}

TEST(MetricsSamplerTest, HeatmapSourceFeedsTopKDeltas) {
  std::atomic<uint64_t> heat{0};
  std::atomic<uint64_t> waits{0};
  ScopedIndexSource scope(
      [&heat] {
        return Heatmap{{0, 100, heat.load(), 0}, {100, 200, 4, 0}};
      },
      [&waits] {
        return Heatmap{{0, 100, 0, 0}, {100, 200, 0, waits.load()}};
      });
  MetricsSampler sampler;
  heat = 80;
  sampler.SampleNow();
  heat = 200;
  waits = 30;
  sampler.SampleNow();

  const std::vector<MetricsSample> series = sampler.Snapshot();
  ASSERT_EQ(series.size(), 2u);
  ASSERT_FALSE(series[1].hot.empty());
  // Hottest-by-delta first: unit [0,100) moved 120, unit [100,200) 0.
  EXPECT_EQ(series[1].hot[0].lo, 0u);
  EXPECT_EQ(series[1].hot[0].reads, 120u);
  // The contention map rides the same scope: only [100,200) contended.
  EXPECT_TRUE(series[0].contention.empty());
  ASSERT_EQ(series[1].contention.size(), 1u);
  EXPECT_EQ(series[1].contention[0].lo, 100u);
  EXPECT_EQ(series[1].contention[0].writes, 30u);

  const std::string path = ::testing::TempDir() + "/telemetry_source.jsonl";
  ASSERT_TRUE(sampler.WriteJsonl(path));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"contention\":[]"), std::string::npos) << line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"contention\":[{\"lo\":100,\"hi\":200,"),
            std::string::npos)
      << line;
  std::remove(path.c_str());
}

// Nesting, observed through fresh samplers (a first tick's delta is the
// whole map): the inner scope shadows the outer one and restores it.
TEST(MetricsSamplerTest, ScopedSourceNestsAndRestores) {
  const auto hot_units = [] {
    MetricsSampler sampler;
    sampler.SampleNow();
    return sampler.Snapshot()[0].hot.size();
  };
  EXPECT_EQ(hot_units(), 0u);
  {
    ScopedIndexSource outer([] { return Heatmap{{0, 1, 1, 0}}; }, nullptr);
    ASSERT_EQ(hot_units(), 1u);
    {
      ScopedIndexSource inner(
          [] { return Heatmap{{0, 1, 1, 0}, {1, 2, 1, 0}}; }, nullptr);
      EXPECT_EQ(hot_units(), 2u);
    }
    EXPECT_EQ(hot_units(), 1u);
  }
  EXPECT_EQ(hot_units(), 0u);
}

TEST(MetricsSamplerTest, WriteJsonlEmitsOneParseableLinePerTick) {
  StatsRegistry::Get().Reset();
  MetricsSampler sampler;
  StatsRegistry::Get().Add(Counter::kInserts, 3);
  sampler.SampleNow();
  sampler.SampleNow();

  const std::string path = ::testing::TempDir() + "/telemetry_series.jsonl";
  ASSERT_TRUE(sampler.WriteJsonl(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"tick\":"), std::string::npos);
    EXPECT_NE(line.find("\"counters\":"), std::string::npos);
    EXPECT_NE(line.find("\"inserts\":3"), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
  StatsRegistry::Get().Reset();
}

TEST(MetricsSamplerTest, RenderPromExposesCountersAndHistograms) {
  StatsRegistry::Get().Add(Counter::kLookups, 1);
  const std::string prom = MetricsSampler::RenderProm();
  EXPECT_NE(prom.find("# TYPE chameleon_lookups_total counter"),
            std::string::npos)
      << prom.substr(0, 400);
  EXPECT_NE(prom.find("# TYPE chameleon_phase_wal_append_ns summary"),
            std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.99\""), std::string::npos);
  StatsRegistry::Get().Reset();
}

// No phase has been touched before the first tick, yet every phase's
// digest is listed under its "phase_<name>" key, in the JSONL and in
// the Prometheus rendering alike.
TEST(MetricsSamplerTest, HistsListEveryPhaseFromTheFirstTick) {
  MetricsSampler sampler;
  sampler.SampleNow();
  const std::string path = ::testing::TempDir() + "/telemetry_hists.jsonl";
  ASSERT_TRUE(sampler.WriteJsonl(path));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const std::string prom = MetricsSampler::RenderProm();
  for (size_t p = 0; p < kNumWritePhases; ++p) {
    const std::string name =
        "phase_" + std::string(WritePhaseName(static_cast<WritePhase>(p)));
    EXPECT_NE(line.find("\"" + name + "\":{\"count\":"), std::string::npos)
        << name << " missing from tick 0: " << line;
    EXPECT_NE(prom.find("chameleon_" + name + "_ns_count "), std::string::npos)
        << name << " missing from the Prometheus rendering";
  }
  std::remove(path.c_str());
}

// Background thread ticking while the workload mutates every sampled
// surface (counters, a phase histogram, the index source). This is the
// telemetry TSan target.
TEST(MetricsSamplerTest, BackgroundThreadSamplesDuringConcurrentLoad) {
  StatsRegistry::Get().Reset();
  ResetPhaseHistograms();
  std::atomic<uint64_t> heat{0};
  ScopedIndexSource scope(
      [&heat] {
        return Heatmap{{0, 1000, heat.load(std::memory_order_relaxed), 0}};
      },
      nullptr);

  SamplerOptions options;
  options.interval = std::chrono::milliseconds(2);
  MetricsSampler sampler(options);
  sampler.Start();
  sampler.Start();  // idempotent

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&stop, &heat] {
      while (!stop.load(std::memory_order_relaxed)) {
        CHAMELEON_STAT_INC(kLookups);
        heat.fetch_add(1, std::memory_order_relaxed);
        CHAMELEON_PHASE_SPAN(kApply);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop = true;
  for (std::thread& worker : workers) worker.join();
  sampler.Stop();
  sampler.Stop();  // idempotent

  // Stop() captures a final tick, so even heavily-delayed schedules
  // retain at least that one; normally dozens.
  EXPECT_GE(sampler.total_ticks(), 1u);
  const std::vector<MetricsSample> series = sampler.Snapshot();
  ASSERT_FALSE(series.empty());
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_EQ(series[i].tick, series[i - 1].tick + 1);
    EXPECT_GE(series[i].ts_ns, series[i - 1].ts_ns);
    const size_t c = static_cast<size_t>(Counter::kLookups);
    EXPECT_GE(series[i].totals[c], series[i - 1].totals[c]);
  }
  ResetPhaseHistograms();
  StatsRegistry::Get().Reset();
}

// A replay far shorter than the tick interval: no periodic tick lands
// inside it and Stop()'s final tick comes after the replay unregistered
// its index, so only the tick taken as its index source closes can
// carry its heat into the series.
TEST(MetricsSamplerTest, ReplayShorterThanIntervalStillReachesSeries) {
#ifdef CHAMELEON_NO_STATS
  GTEST_SKIP() << "heat counters compile out under CHAMELEON_NO_STATS";
#endif
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kOsmc, 20'000, 3);
  std::unique_ptr<KvIndex> index = MakeIndex("Chameleon");
  index->BulkLoad(ToKeyValues(keys));
  SamplerOptions options;
  options.interval = std::chrono::hours(1);
  MetricsSampler sampler(options);
  sampler.Start();
  Replay(index.get(),
         MaterializeWorkload(ParseWorkloadOrDie("read"), keys, 5, 2'000), {});
  sampler.Stop();
  const std::vector<MetricsSample> series = sampler.Snapshot();
  EXPECT_TRUE(std::any_of(series.begin(), series.end(), [](const auto& s) {
    return !s.hot.empty();
  })) << series.size() << " ticks, none with unit heat";
}

}  // namespace
}  // namespace chameleon::obs
