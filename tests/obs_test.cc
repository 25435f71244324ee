// Tests for the src/obs/ observability layer: histogram accuracy
// against an exact sorted-vector oracle, counter aggregation under
// concurrent writers, trace-journal wraparound, and a parse round-trip
// of the bench --json output. The concurrency cases double as the TSan
// targets (see .github/workflows/ci.yml).

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/obs/latency_histogram.h"
#include "src/obs/stats.h"
#include "src/obs/trace_journal.h"

namespace chameleon::obs {
namespace {

// --- LatencyHistogram -------------------------------------------------------

double ExactPercentile(std::vector<double> v, double pct) {
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

TEST(LatencyHistogramTest, ExactBelowSubBucketRange) {
  LatencyHistogram hist;
  std::vector<double> oracle;
  // All values < 256 land in width-1 buckets, so every percentile must
  // match the sorted-vector computation exactly.
  for (int64_t v = 1; v <= 200; ++v) {
    hist.Record(v);
    oracle.push_back(static_cast<double>(v));
  }
  EXPECT_EQ(hist.count(), 200u);
  EXPECT_DOUBLE_EQ(hist.MinNanos(), 1.0);
  EXPECT_DOUBLE_EQ(hist.MaxNanos(), 200.0);
  for (double pct : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(hist.PercentileNanos(pct), ExactPercentile(oracle, pct))
        << "pct=" << pct;
  }
}

TEST(LatencyHistogramTest, AccuracyVsExactSortOnLogNormal) {
  LatencyHistogram hist;
  std::vector<double> oracle;
  std::mt19937_64 rng(42);
  // Latency-shaped data: log-normal spanning ~1e2..1e7 ns.
  std::lognormal_distribution<double> dist(6.0, 2.0);
  for (int i = 0; i < 100'000; ++i) {
    const int64_t v = static_cast<int64_t>(dist(rng)) + 1;
    hist.Record(v);
    oracle.push_back(static_cast<double>(v));
  }
  // Bucket width is 2^-8 of the value, so any quantile must agree with
  // the exact oracle to well under 1% relative error.
  for (double pct : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = ExactPercentile(oracle, pct);
    const double approx = hist.PercentileNanos(pct);
    EXPECT_NEAR(approx, exact, exact * 0.01) << "pct=" << pct;
  }
  const double exact_mean =
      std::accumulate(oracle.begin(), oracle.end(), 0.0) / oracle.size();
  EXPECT_DOUBLE_EQ(hist.MeanNanos(), exact_mean);  // sum/count are exact
  EXPECT_DOUBLE_EQ(hist.MaxNanos(),
                   *std::max_element(oracle.begin(), oracle.end()));
}

TEST(LatencyHistogramTest, MergeEqualsCombinedRecording) {
  LatencyHistogram a, b, combined;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const int64_t v = static_cast<int64_t>(rng() % 1'000'000);
    (i % 2 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.MeanNanos(), combined.MeanNanos());
  EXPECT_DOUBLE_EQ(a.MaxNanos(), combined.MaxNanos());
  EXPECT_DOUBLE_EQ(a.MinNanos(), combined.MinNanos());
  for (double pct : {50.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.PercentileNanos(pct), combined.PercentileNanos(pct));
  }
}

// The driver's multi-threaded replay path: each thread records into
// its own histogram, the results are merged at the end. The merged
// digest must be bit-identical to recording the whole stream into one
// histogram (bucketing is deterministic, sum/count exact), and its
// percentiles must honor the 2^-kSubBucketBits relative error bound
// against a sorted oracle.
TEST(LatencyHistogramTest, PerThreadMergeMatchesSingleGroundTruth) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 40'000;
  std::vector<LatencyHistogram> per_thread(kThreads);
  LatencyHistogram ground_truth;
  std::vector<double> oracle;
  oracle.reserve(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&per_thread, t] {
      std::mt19937_64 rng(1000 + static_cast<uint64_t>(t));
      std::lognormal_distribution<double> dist(6.0, 2.0);
      for (int i = 0; i < kPerThread; ++i) {
        per_thread[t].Record(static_cast<int64_t>(dist(rng)) + 1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // Same streams, replayed serially, into one histogram + the oracle.
  for (int t = 0; t < kThreads; ++t) {
    std::mt19937_64 rng(1000 + static_cast<uint64_t>(t));
    std::lognormal_distribution<double> dist(6.0, 2.0);
    for (int i = 0; i < kPerThread; ++i) {
      const int64_t v = static_cast<int64_t>(dist(rng)) + 1;
      ground_truth.Record(v);
      oracle.push_back(static_cast<double>(v));
    }
  }

  LatencyHistogram merged;
  for (const LatencyHistogram& h : per_thread) merged.Merge(h);

  EXPECT_EQ(merged.count(), ground_truth.count());
  EXPECT_DOUBLE_EQ(merged.MeanNanos(), ground_truth.MeanNanos());
  EXPECT_DOUBLE_EQ(merged.MaxNanos(), ground_truth.MaxNanos());
  EXPECT_DOUBLE_EQ(merged.MinNanos(), ground_truth.MinNanos());
  for (double pct : {50.0, 90.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(merged.PercentileNanos(pct),
                     ground_truth.PercentileNanos(pct));
  }

  // Error bound: each bucket spans at most 2^-kSubBucketBits of its
  // value range, so a reported percentile sits within one bucket width
  // of the exact order statistic (2x slack for oracle interpolation).
  const double bound = 2.0 / static_cast<double>(
                                 LatencyHistogram::kSubBuckets);
  for (double pct : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = ExactPercentile(oracle, pct);
    EXPECT_NEAR(merged.PercentileNanos(pct), exact, exact * bound)
        << "pct=" << pct;
  }
}

TEST(LatencyHistogramTest, NegativeValuesClampToZero) {
  LatencyHistogram hist;
  hist.Record(-5);
  hist.Record(3);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_DOUBLE_EQ(hist.MinNanos(), 0.0);
  EXPECT_DOUBLE_EQ(hist.MaxNanos(), 3.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordersLoseNothing) {
  LatencyHistogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      std::mt19937_64 rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<int64_t>(rng() % 100'000));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// --- StatsRegistry ----------------------------------------------------------

TEST(StatsRegistryTest, EightConcurrentWritersAggregateExactly) {
  StatsRegistry& reg = StatsRegistry::Get();
  reg.Reset();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        reg.Add(Counter::kLookups);
        if (i % 4 == 0) reg.Add(Counter::kEbhProbeSteps, 3);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(reg.Total(Counter::kLookups), kThreads * kPerThread);
  EXPECT_EQ(reg.Total(Counter::kEbhProbeSteps),
            kThreads * (kPerThread / 4) * 3);

  const CounterSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap[static_cast<size_t>(Counter::kLookups)],
            kThreads * kPerThread);
  reg.Reset();
  EXPECT_EQ(reg.Total(Counter::kLookups), 0u);
}

TEST(StatsRegistryTest, EveryCounterHasAUniqueName) {
  std::vector<std::string_view> names;
  for (size_t i = 0; i < kNumCounters; ++i) {
    names.push_back(CounterName(static_cast<Counter>(i)));
  }
  for (std::string_view name : names) {
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(std::count(names.begin(), names.end(), name), 1) << name;
  }
}

// --- TraceJournal -----------------------------------------------------------

TEST(TraceJournalTest, WraparoundKeepsNewestInOrder) {
  TraceJournal& journal = TraceJournal::Get();
  journal.Clear();
  journal.SetEnabled(true);
  const size_t total = TraceJournal::kCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    journal.Append(TraceEventType::kUnitRebuilt, i, i * 2);
  }
  EXPECT_EQ(journal.size(), TraceJournal::kCapacity);

  const std::vector<TraceEvent> events = journal.Snapshot();
  ASSERT_EQ(events.size(), TraceJournal::kCapacity);
  // Oldest retained is #100; order and payloads survive the wrap.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, i + 100);
    EXPECT_EQ(events[i].b, (i + 100) * 2);
  }
  journal.SetEnabled(false);
  journal.Clear();
}

TEST(TraceJournalTest, DisabledAppendsAreDropped) {
  TraceJournal& journal = TraceJournal::Get();
  journal.Clear();
  journal.SetEnabled(false);
  journal.Append(TraceEventType::kRetrainPass, 1, 2);
  EXPECT_EQ(journal.size(), 0u);
}

TEST(TraceJournalTest, ConcurrentAppendersNeverTearEvents) {
  TraceJournal& journal = TraceJournal::Get();
  journal.Clear();
  journal.SetEnabled(true);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      // Each thread writes a recognizable (a, b) pairing; a snapshot
      // must never observe a mix of two writers in one slot.
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t a = static_cast<uint64_t>(t) * kPerThread + i;
        journal.Append(TraceEventType::kLeafExpansion, a, ~a);
      }
    });
  }
  // Concurrent readers while writers run: entries must be whole or absent.
  for (int r = 0; r < 50; ++r) {
    for (const TraceEvent& e : journal.Snapshot()) {
      ASSERT_EQ(e.b, ~e.a);
    }
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(journal.total_appended(), kThreads * kPerThread);
  EXPECT_EQ(journal.size(), TraceJournal::kCapacity);
  for (const TraceEvent& e : journal.Snapshot()) {
    EXPECT_EQ(e.b, ~e.a);
  }
  journal.SetEnabled(false);
  journal.Clear();
}

// Wraparound stress with live readers: many appenders push far past
// kCapacity while snapshots run concurrently. The drop arithmetic must
// stay exact — total_appended() counts every append, size() caps at
// kCapacity, and the difference is precisely the overwritten events.
TEST(TraceJournalTest, ConcurrentWraparoundAccountsForDrops) {
  TraceJournal& journal = TraceJournal::Get();
  journal.Clear();
  journal.SetEnabled(true);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 3 * TraceJournal::kCapacity;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t a = static_cast<uint64_t>(t) * kPerThread + i;
        journal.Append(TraceEventType::kUnitRebuilt, a, a ^ 0x5a5a5a5a);
      }
    });
  }
  // Snapshots racing the wrapping writers: every entry whole or absent,
  // retained count never above capacity.
  for (int r = 0; r < 20; ++r) {
    const std::vector<TraceEvent> events = journal.Snapshot();
    EXPECT_LE(events.size(), TraceJournal::kCapacity);
    for (const TraceEvent& e : events) {
      ASSERT_EQ(e.b, e.a ^ 0x5a5a5a5a);
    }
  }
  for (std::thread& th : threads) th.join();

  const uint64_t total = journal.total_appended();
  EXPECT_EQ(total, kThreads * kPerThread);
  EXPECT_EQ(journal.size(), TraceJournal::kCapacity);
  const uint64_t dropped = total - journal.size();
  EXPECT_EQ(dropped, kThreads * kPerThread - TraceJournal::kCapacity);
  journal.SetEnabled(false);
  journal.Clear();
}

TEST(TraceJournalTest, DumpJsonlWritesOneObjectPerEvent) {
  TraceJournal& journal = TraceJournal::Get();
  journal.Clear();
  journal.SetEnabled(true);
  journal.Append(TraceEventType::kRetrainPass, 4, 2);
  journal.Append(TraceEventType::kFullRebuild, 1000, 0);
  journal.SetEnabled(false);

  const std::string path = ::testing::TempDir() + "/obs_trace.jsonl";
  ASSERT_TRUE(journal.DumpJsonl(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_NE(std::string(line).find("\"type\": \"retrain_pass\""),
            std::string::npos);
  EXPECT_NE(std::string(line).find("\"a\": 4"), std::string::npos);
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_NE(std::string(line).find("\"type\": \"full_rebuild\""),
            std::string::npos);
  EXPECT_EQ(std::fgets(line, sizeof(line), f), nullptr);
  std::fclose(f);
  std::remove(path.c_str());
  journal.Clear();
}

// --- bench --json round-trip ------------------------------------------------

// Minimal recursive-descent JSON validator — enough to prove the blob
// the benches emit is well-formed without pulling in a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') { ++pos_; continue; }
      if (s_[pos_] == '"') { ++pos_; return true; }
    }
    return false;
  }
  bool Number() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

TEST(JsonReportTest, WriteParseRoundTrip) {
  bench::Options opt;
  opt.scale = 1234;
  opt.ops = 56;
  opt.json_path = ::testing::TempDir() + "/obs_report.json";

  bench::JsonReport report("unit \"quoted\" bench", opt);
  ASSERT_TRUE(report.enabled());
  ASSERT_NE(report.lat(), nullptr);
  for (int64_t v = 1; v <= 100; ++v) report.lat()->Record(v);
  report.AddRow().Str("index", "Chameleon").Num("lookup_ns", 42.5);
  report.AddRow().Str("index", "back\\slash").Num("lookup_ns", 7);
  StatsRegistry::Get().Add(Counter::kLookups, 9);
  ASSERT_TRUE(report.Write());

  std::FILE* f = std::fopen(opt.json_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string blob;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) blob.append(buf, n);
  std::fclose(f);
  std::remove(opt.json_path.c_str());

  EXPECT_TRUE(JsonChecker(blob).Valid()) << blob;
  // Escaping survived, fields landed, and the histogram percentiles
  // match the exact values for 1..100.
  EXPECT_NE(blob.find("\"bench\": \"unit \\\"quoted\\\" bench\""),
            std::string::npos);
  EXPECT_NE(blob.find("\"scale\": 1234"), std::string::npos);
  EXPECT_NE(blob.find("\"index\": \"back\\\\slash\""), std::string::npos);
  EXPECT_NE(blob.find("\"p50\": 50.5"), std::string::npos);
  EXPECT_NE(blob.find("\"count\": 100"), std::string::npos);
  EXPECT_NE(blob.find("\"lookups\":"), std::string::npos);
}

TEST(JsonReportTest, DisabledWithoutJsonFlag) {
  bench::Options opt;
  bench::JsonReport report("noop", opt);
  EXPECT_FALSE(report.enabled());
  EXPECT_EQ(report.lat(), nullptr);
  EXPECT_TRUE(report.Write());  // no file side effects
}

/// Options::Parse over `args` (argv[0] prepended) plus a binary's `own`
/// flag entries.
bench::Options ParseFlags(std::vector<const char*> args,
                          std::vector<bench::Flag> own = {}) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  return bench::Options::Parse(static_cast<int>(argv.size()), argv.data(),
                               std::move(own));
}

TEST(OptionsTest, UnknownFlagsAndBadValuesExitTwo) {
  // Re-exec rather than fork: earlier tests in the process may have
  // started the global thread pool, whose exit-time teardown a forked
  // child cannot run.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Per-binary entries as bench_ycsb, bench_tiered and bench_durability
  // declare them.
  double rate = 0.0;
  size_t merge = 1024;
  size_t crash_after = 0;
  const std::vector<bench::Flag> own = {
      bench::NumFlag("--rate=", &rate), bench::NumFlag("--merge=", &merge, 1),
      bench::NumFlag("--crash-after=", &crash_after)};
  const struct {
    const char* arg;
    const char* error;
  } kCases[] = {
      {"--scael=2000", "unknown flag \"--scael=2000\""},
      {"--scale", "unknown flag"},
      {"stray", "unknown flag"},
      {"--mixes=a", "unknown flag"},  // another binary's flag
      {"--shards=4", "unknown flag"},  // Sharded4 is named by --spec only
      {"--scale=2k", "bad value in \"--scale=2k\""},
      {"--seed=-1", "bad value"},
      {"--rate=fast", "bad value"},
      {"--rate=-5", "bad value"},
      {"--merge=0", "bad value"},
      {"--crash-after=x", "bad value"},
  };
  for (const auto& c : kCases) {
    EXPECT_EXIT(ParseFlags({c.arg}, own), ::testing::ExitedWithCode(2),
                c.error)
        << c.arg;
  }
  ParseFlags({"--rate=2.5e4", "--merge=1", "--crash-after=7"}, own);
  EXPECT_EQ(rate, 25000.0);
  EXPECT_EQ(merge, 1u);
  EXPECT_EQ(crash_after, 7u);
}

TEST(OptionsTest, ShardsComeFromTheCanonicalSpec) {
  EXPECT_EQ(ParseFlags({}).shards, 1u);
  EXPECT_EQ(ParseFlags({"--spec=Sharded4"}).shards, 4u);
  const bench::Options opt = ParseFlags({"--spec=Sharded2"});
  EXPECT_EQ(opt.spec, "Sharded2");
  EXPECT_EQ(opt.shards, 2u);
}

}  // namespace
}  // namespace chameleon::obs
