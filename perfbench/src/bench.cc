#include "perfbench/src/bench.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <thread>

#include "src/api/index_factory.h"
#include "src/api/index_spec.h"
#include "src/core/chameleon_index.h"
#include "src/obs/phase_timer.h"
#include "src/obs/stats.h"
#include "src/simd/probe_kernel.h"
#include "src/tiered/tiered_index.h"
#include "src/util/timer.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"
#include "src/workload/workload_spec.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using chameleon::ChameleonIndex;
using chameleon::DatasetKind;
using chameleon::Operation;
using chameleon::OpType;
using chameleon::obs::Counter;
using chameleon::obs::CounterSnapshot;
using chameleon::obs::CycleClock;
using chameleon::obs::WritePhase;

namespace fs = std::filesystem;

const std::vector<WorkloadConfig>& Workloads() {
  // The gated workloads run one client: with two or more, segment
  // throughput and tail latency followed how the host scheduled the
  // clients against each other, not the program (README.md,
  // "Workloads").
  static const std::vector<WorkloadConfig> workloads = {
      {"read_mostly", "ycsb-b(zipf=0.99)", DatasetKind::kOsmc,
       "Sharded4:Chameleon", "Span(engine):Sharded4:Span(core):Chameleon",
       /*clients=*/1, /*retrainer=*/false, /*reopen_check=*/false,
       /*segment_ops=*/250'000, /*trial_segments=*/40,
       /*warmup_ops=*/1'000'000},
      {"write_heavy", "ycsb-a(zipf=0.99)", DatasetKind::kFace, "Chameleon",
       "Span(core):Chameleon", /*clients=*/4, /*retrainer=*/true,
       /*reopen_check=*/false, /*segment_ops=*/100'000,
       /*trial_segments=*/24, /*warmup_ops=*/1'000'000},
      // fsync every 4096 appends per shard: at 64, the WAL's fsyncs took
      // a fifth of the run and its throughput followed the host's disk.
      {"scan_durable", "ycsb-e(zipf=0.99,scan=100)", DatasetKind::kOsmc,
       "Sharded4:Durable({dir},fsync=everyN,n=4096):Chameleon",
       "Span(engine):Sharded4:Span(storage):Durable({dir},fsync=everyN,"
       "n=4096):Chameleon",
       /*clients=*/1, /*retrainer=*/false, /*reopen_check=*/true,
       /*segment_ops=*/50'000, /*trial_segments=*/32,
       /*warmup_ops=*/100'000},
      {"disk_read", "ycsb-c(zipf=0.99)", DatasetKind::kOsmc,
       "Disk({dir},frames=1000):Chameleon",
       "Span(tiered):Disk({dir},frames=1000):Span(core):Chameleon",
       /*clients=*/1, /*retrainer=*/false, /*reopen_check=*/false,
       /*segment_ops=*/50'000, /*trial_segments=*/40,
       /*warmup_ops=*/400'000},
  };
  return workloads;
}

const WorkloadConfig* FindWorkload(std::string_view name) {
  for (const WorkloadConfig& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string ExpandStack(std::string_view stack, const std::string& dir) {
  std::string out(stack);
  const std::string token = "{dir}";
  for (size_t pos = out.find(token); pos != std::string::npos;
       pos = out.find(token, pos + dir.size())) {
    out.replace(pos, token.size(), dir);
  }
  return out;
}

namespace {

constexpr uint64_t kDatasetSeed = 42;
/// Trials of an untimed run at the least, whatever --seconds says.
constexpr size_t kMinTrials = 3;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// Same semantics as the driver's per-op execution (src/workload/
/// driver.cc): kUpdate is erase + reinsert, kScan misses on an empty
/// range. Returns true on a miss.
bool ExecuteOp(KvIndex* index, const Operation& op,
               std::vector<KeyValue>* scan_buf) {
  switch (op.type) {
    case OpType::kLookup: {
      Value v;
      return !index->Lookup(op.key, &v);
    }
    case OpType::kInsert:
      return !index->Insert(op.key, op.value);
    case OpType::kErase:
      return !index->Erase(op.key);
    case OpType::kUpdate: {
      const bool erased = index->Erase(op.key);
      const bool inserted = index->Insert(op.key, op.value);
      return !erased || !inserted;
    }
    case OpType::kScan:
      scan_buf->clear();
      return index->RangeScan(op.key, static_cast<Key>(op.value), scan_buf) ==
             0;
  }
  return true;
}

bool HasWrites(std::span<const Operation> ops) {
  return std::any_of(ops.begin(), ops.end(), [](const Operation& op) {
    return chameleon::IsWriteOp(op.type);
  });
}

/// The driver's thread partition (ReplayOptions::threads): write-bearing
/// streams go to thread key % R, read-only streams in contiguous chunks.
std::vector<std::vector<Operation>> Partition(std::span<const Operation> ops,
                                              size_t threads) {
  std::vector<std::vector<Operation>> parts(threads);
  if (HasWrites(ops)) {
    for (const Operation& op : ops) {
      parts[static_cast<size_t>(op.key) % threads].push_back(op);
    }
  } else {
    for (size_t t = 0; t < threads; ++t) {
      parts[t].assign(ops.begin() + t * ops.size() / threads,
                      ops.begin() + (t + 1) * ops.size() / threads);
    }
  }
  return parts;
}

/// The cycle counter's calibrated period. Latency segments record raw
/// ticks, which resolve a 70 ns lookup far finer than whole nanoseconds,
/// and convert percentiles with this factor.
double NanosPerTick() {
  static const double ns_per_tick =
      static_cast<double>(CycleClock::ToNanos(uint64_t{1} << 40)) /
      static_cast<double>(uint64_t{1} << 40);
  return ns_per_tick;
}

/// Latencies of one timed pass in cycle-counter ticks, per client thread,
/// split by op class (scans are reads, as in chameleon::IsWriteOp).
struct LatencyHists {
  obs::LatencyHistogram read;
  obs::LatencyHistogram write;
};

/// A stream that never inserts or erases leaves the key set as loaded,
/// so it can be generated once and replayed cyclically.
bool KeepsKeySet(const chameleon::WorkloadDesc& desc) {
  return desc.family == chameleon::WorkloadDesc::Family::kYcsb &&
         desc.mix.insert == 0.0;
}

/// The workload's operation stream from its start (one per trial), handed
/// out segment by segment. It either cycles through a pre-generated pool
/// (KeepsKeySet streams: stream generation costs more than most
/// operations, so it is kept out of the run) or generates each segment as
/// the run goes, and derives the key set the index must hold from the
/// operations handed out.
class StreamState {
 public:
  StreamState(const chameleon::WorkloadDesc& desc,
              std::span<const Key> loaded, uint64_t seed,
              size_t segment_ops, std::span<const Operation> pool)
      : gen_(loaded, seed),
        source_(pool.empty() ? chameleon::MakeOpSource(desc, gen_, loaded)
                             : nullptr),
        loaded_(loaded),
        pool_(pool),
        segment_ops_(segment_ops) {}

  std::span<const Operation> Next() {
    if (!pool_.empty()) {
      const size_t n = std::min(segment_ops_, pool_.size() - pool_pos_);
      const std::span<const Operation> segment = pool_.subspan(pool_pos_, n);
      pool_pos_ = (pool_pos_ + n) % pool_.size();
      return segment;
    }
    ops_.clear();
    Operation op;
    while (ops_.size() < segment_ops_ && source_->Next(&op)) {
      ops_.push_back(op);
      if (op.type == OpType::kInsert) added_.push_back(op.key);
      if (op.type == OpType::kErase) removed_.push_back(op.key);
    }
    return ops_;
  }

  /// Sorted keys that must be present after every handed-out op ran.
  std::vector<Key> ExpectedKeys() const {
    std::vector<Key> added = added_;
    std::sort(added.begin(), added.end());
    std::vector<Key> all;
    all.reserve(loaded_.size() + added.size());
    std::merge(loaded_.begin(), loaded_.end(), added.begin(), added.end(),
               std::back_inserter(all));
    if (removed_.empty()) return all;
    std::vector<Key> removed = removed_;
    std::sort(removed.begin(), removed.end());
    std::vector<Key> out;
    std::set_difference(all.begin(), all.end(), removed.begin(),
                        removed.end(), std::back_inserter(out));
    return out;
  }

 private:
  chameleon::WorkloadGenerator gen_;
  std::unique_ptr<chameleon::OpSource> source_;
  std::span<const Key> loaded_;
  std::span<const Operation> pool_;
  size_t pool_pos_ = 0;
  size_t segment_ops_;
  std::vector<Operation> ops_;
  std::vector<Key> added_;
  std::vector<Key> removed_;
};

/// The WAL flush policy a stack spec configures ("none" without a
/// Durable layer), for provenance.
std::string FsyncPolicy(std::string_view stack) {
  chameleon::SpecError error;
  const auto node = chameleon::ParseIndexSpec(stack, &error);
  for (const chameleon::SpecNode* n = node.get(); n != nullptr;
       n = n->inner.get()) {
    if (n->name != "Durable") continue;
    std::string fsync = "always";  // DurableIndex's default
    std::string window;
    for (const chameleon::SpecOption& option : n->options) {
      if (option.key == "fsync") fsync = option.value;
      if (option.key == "n") window = ",n=" + option.value;
    }
    return "fsync=" + fsync + window;
  }
  return "none";
}

/// Full-content check: size() and a full RangeScan must match `expected`
/// with the generator's payload convention. Returns an error or "".
std::string CheckContents(const KvIndex& index,
                          const std::vector<Key>& expected) {
  if (index.size() != expected.size()) {
    return "size() is " + std::to_string(index.size()) + ", expected " +
           std::to_string(expected.size());
  }
  std::vector<KeyValue> all;
  all.reserve(expected.size());
  index.RangeScan(chameleon::kMinKey, chameleon::kMaxKey, &all);
  if (all.size() != expected.size()) {
    return "full RangeScan returned " + std::to_string(all.size()) +
           " pairs, expected " + std::to_string(expected.size());
  }
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].key != expected[i] ||
        all[i].value != chameleon::PayloadFor(expected[i])) {
      return "full RangeScan differs at position " + std::to_string(i);
    }
  }
  return "";
}

/// The host-speed gauge: answers `ops` from a plain sorted array on one
/// thread, a binary search per operation and a copy of the range for a
/// scan (writes are located like lookups), and returns the mean ns per
/// operation; with `ticks`, it also records each operation's time there
/// in cycle-counter ticks. It runs no repository code, so a change to the
/// program leaves it alone, while a host that runs everything faster or
/// slower, by a third within minutes on the 4-core VMs this was tuned on,
/// moves it together with the index.
double RunReference(std::span<const KeyValue> sorted,
                    std::span<const Operation> ops,
                    std::vector<KeyValue>* scan_buf,
                    obs::LatencyHistogram* ticks) {
  static volatile uint64_t sink = 0;
  uint64_t found = 0;
  const int64_t t0 = chameleon::NowNanos();
  for (const Operation& op : ops) {
    const uint64_t start = ticks != nullptr ? CycleClock::Now() : 0;
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), op.key,
        [](const KeyValue& kv, Key key) { return kv.key < key; });
    if (op.type == OpType::kScan) {
      scan_buf->clear();
      for (; it != sorted.end() && it->key <= static_cast<Key>(op.value);
           ++it) {
        scan_buf->push_back(*it);
      }
      found += scan_buf->size();
    } else if (it != sorted.end() && it->key == op.key) {
      found += it->value;
    }
    if (ticks != nullptr) {
      ticks->Record(static_cast<int64_t>(CycleClock::Now() - start));
    }
  }
  const int64_t ns = chameleon::NowNanos() - t0;
  sink = sink + found;
  return static_cast<double>(ns) / static_cast<double>(ops.size());
}

struct PhasePlan {
  bool traced = false;
  /// Trials run until their measured segments add up to window_s, at
  /// least min_trials and at most max_trials of them.
  double window_s = 0.0;
  size_t min_trials = 1;
  size_t max_trials = SIZE_MAX;
};

/// Everything one stack (plain or traced) produced, over all its trials.
struct PhaseOutcome {
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t misses = 0;
  std::vector<double> setup_s;  // one per trial
  // Measured segments of every trial:
  std::vector<double> segment_mops;  // throughput segments
  std::vector<double> segment_p50_ns, segment_p99_ns, segment_read_p99_ns;
  // The reference run after each segment (RunReference): its mean ns per
  // operation after throughput segments, its p50 and p99 after latency
  // segments, and each segment's figure relative to them.
  std::vector<double> ref_ns, ref_p50_ns, ref_p99_ns;
  std::vector<double> segment_mops_x_ref;
  std::vector<double> segment_p50_x_ref, segment_p99_x_ref,
      segment_read_p99_x_ref;
  LatencyHists latency;              // all latency segments pooled
  uint64_t window_lookups = 0;
  std::vector<uint64_t> thread_ops;  // per client thread
  CounterSnapshot counters{};        // counter deltas
  std::vector<obs::LatencyHistogram> phases;  // per WritePhase
  // After each trial's warm-up, at a fixed point of the stream:
  std::vector<double> bytes_per_key;
  chameleon::TieredStatsBlock tiered;  // first trial
  std::unique_ptr<TraceSummary> setup_trace;
  std::unique_ptr<TraceSummary> trace;
};

/// Runs one stack as a series of identical trials. A trial builds a fresh
/// stack, replays the same warm-up prefix and the same measured segments,
/// and ends with the correctness gate, so every trial measures the same
/// work from the same state however fast the host runs.
class PhaseRunner {
 public:
  PhaseRunner(const WorkloadConfig& config, const RunOptions& options,
              const chameleon::WorkloadDesc& desc,
              std::span<const Key> keys, std::span<const KeyValue> data,
              std::span<const Operation> pool, size_t clients)
      : config_(config),
        options_(options),
        desc_(desc),
        keys_(keys),
        data_(data),
        pool_(pool),
        clients_(clients) {}

  PhaseOutcome Run(const PhasePlan& plan) {
    PhaseOutcome out;
    try {
      RunChecked(plan, &out);
    } catch (const std::exception& e) {
      out.errors.push_back(std::string("exception: ") + e.what());
    }
    attempted_before_ += out.attempted;
    Tracer::Get().set_enabled(false);
    index_.reset();
    if (!dir_.empty()) {
      std::error_code ec;
      fs::remove_all(dir_, ec);
    }
    return out;
  }

 private:
  /// Operation counts are given for the full 1M-key dataset and shrink
  /// with it (the smoke tests run 20k keys).
  size_t Scaled(size_t ops) const {
    return std::max<size_t>(
        1000, static_cast<size_t>(static_cast<double>(ops) *
                                  static_cast<double>(options_.keys) / 1e6));
  }

  void Build(const PhasePlan& plan, size_t trial, PhaseOutcome* out) {
    index_.reset();
    if (!dir_.empty()) fs::remove_all(dir_);
    dir_ = options_.scratch_dir + "/" + (plan.traced ? "traced" : "plain") +
           std::to_string(trial);
    spec_ = ExpandStack(plan.traced ? config_.traced_stack : config_.stack,
                        dir_);
    Tracer& tracer = Tracer::Get();
    if (plan.traced) {
      tracer.ClearInstances();
      tracer.Reset();
      tracer.set_enabled(true);
    }
    std::string error;
    const int64_t t0 = chameleon::NowNanos();
    index_ = chameleon::MakeIndex(spec_, &error);
    if (index_ == nullptr) throw std::runtime_error(error);
    index_->BulkLoad(data_);
    out->setup_s.push_back(static_cast<double>(chameleon::NowNanos() - t0) /
                           1e9);
    if (plan.traced) {
      tracer.set_enabled(false);
      out->setup_trace = tracer.Collect();
      tracer.Reset();
    }
  }

  void RunChecked(const PhasePlan& plan, PhaseOutcome* out) {
    out->thread_ops.assign(clients_, 0);
    out->phases.assign(obs::kNumWritePhases, obs::LatencyHistogram());
    const int64_t budget = static_cast<int64_t>(plan.window_s * 1e9);
    int64_t measured = 0;
    for (size_t trial = 0;
         trial < plan.max_trials &&
         (trial < plan.min_trials || measured < budget);
         ++trial) {
      measured += RunTrial(plan, trial, out);
      if (!out->errors.empty()) return;  // a failed gate ends the phase
    }
  }

  /// Builds, warms up, measures and checks one stack. Returns the
  /// measured segments' wall time in ns.
  int64_t RunTrial(const PhasePlan& plan, size_t trial, PhaseOutcome* out) {
    Build(plan, trial, out);
    KvIndex* index = index_.get();
    if (clients_ > 1 && desc_.has_writes() &&
        !index->EnableConcurrentWrites()) {
      throw std::runtime_error(spec_ + " refuses concurrent writers");
    }
    auto* core = dynamic_cast<ChameleonIndex*>(Unwrap(index));
    if (config_.retrainer && core == nullptr) {
      throw std::runtime_error("retrainer needs a bare Chameleon stack");
    }
    const auto retrainer = [&](bool on) {
      if (!config_.retrainer) return;
      if (on) {
        core->StartRetrainer(std::chrono::milliseconds(100));
      } else {
        core->StopRetrainer();
      }
    };
    retrainer(true);
    const size_t segment_ops = Scaled(config_.segment_ops);
    StreamState stream(desc_, keys_, options_.seed, segment_ops, pool_);
    chameleon::ReplayOptions replay;
    replay.threads = clients_;
    replay.batch = 1;
    uint64_t misses = 0;

    // Warm-up: a fixed prefix of the stream, not timed, so caches,
    // retraining and lazy set-up settle and the size measured next
    // reflects the same amount of work on every trial.
    Tracer::Get().set_enabled(plan.traced);
    for (uint64_t done = 0; done < Scaled(config_.warmup_ops);) {
      const std::span<const Operation> ops = stream.Next();
      if (ops.empty()) break;
      Attempt(ops.size(), out);
      misses += chameleon::Replay(index, ops, replay).misses;
      done += ops.size();
    }
    if (!plan.traced) {
      // SizeBytes() needs quiescence: the retrainer pauses for it.
      retrainer(false);
      out->bytes_per_key.push_back(
          Ratio(static_cast<double>(index->SizeBytes()),
                static_cast<double>(index->size())));
      if (trial == 0) {
        chameleon::CollectTieredStats(Unwrap(index), &out->tiered);
      }
      retrainer(true);
    }

    // Measured segments. Throughput segments go through the repository's
    // driver without per-op clock reads; latency segments time every op.
    // Alternating them lets both see the same conditions. After each
    // plain segment the reference answers an eighth of its operations
    // from a sorted array copied for this trial, so that it samples
    // memory placement per trial as the index does.
    if (plan.traced) Tracer::Get().Reset();
    const std::vector<KeyValue> reference(data_.begin(), data_.end());
    std::vector<KeyValue> ref_buf;
    obs::LatencyHistogram ref_ticks;
    const CounterSnapshot before = obs::StatsRegistry::Get().Snapshot();
    obs::ResetPhaseHistograms();
    int64_t measured = 0;
    std::vector<LatencyHists> per_thread(clients_);
    for (size_t segment = 0; segment < config_.trial_segments; ++segment) {
      const std::span<const Operation> ops = stream.Next();
      if (ops.empty()) break;
      Attempt(ops.size(), out);
      const bool throughput = plan.traced || segment % 2 == 0;
      if (throughput) {
        const chameleon::ReplayResult r =
            chameleon::Replay(index, ops, replay);
        misses += r.misses;
        out->segment_mops.push_back(r.ThroughputMops());
        measured += r.wall_ns;
      } else {
        measured += TimedSegment(index, ops, &per_thread, &misses, out);
      }
      if (!plan.traced) {
        const std::span<const Operation> sample =
            ops.first(std::max<size_t>(1, ops.size() / 8));
        if (throughput) {
          const double ref_ns =
              RunReference(reference, sample, &ref_buf, nullptr);
          out->ref_ns.push_back(ref_ns);
          out->segment_mops_x_ref.push_back(out->segment_mops.back() *
                                            ref_ns / 1e3);
        } else {
          ref_ticks.Clear();
          RunReference(reference, sample, &ref_buf, &ref_ticks);
          const double p50 = ref_ticks.PercentileNanos(50) * NanosPerTick();
          const double p99 = ref_ticks.PercentileNanos(99) * NanosPerTick();
          out->ref_p50_ns.push_back(p50);
          out->ref_p99_ns.push_back(p99);
          out->segment_p50_x_ref.push_back(out->segment_p50_ns.back() / p50);
          out->segment_p99_x_ref.push_back(out->segment_p99_ns.back() / p99);
          out->segment_read_p99_x_ref.push_back(
              out->segment_read_p99_ns.back() / p99);
        }
      }
      const auto parts = Partition(ops, clients_);
      for (size_t t = 0; t < clients_; ++t) {
        out->thread_ops[t] += parts[t].size();
      }
      for (const Operation& op : ops) {
        out->window_lookups += op.type == OpType::kLookup;
      }
    }
    const CounterSnapshot after = obs::StatsRegistry::Get().Snapshot();
    for (size_t c = 0; c < obs::kNumCounters; ++c) {
      out->counters[c] += after[c] - before[c];
    }
    for (size_t p = 0; p < obs::kNumWritePhases; ++p) {
      out->phases[p].Merge(obs::PhaseHistogram(static_cast<WritePhase>(p)));
    }
    if (plan.traced) {
      Tracer::Get().set_enabled(false);
      out->trace = Tracer::Get().Collect();
    }
    retrainer(false);

    // Correctness gate.
    out->misses += misses;
    if (misses > 0) {
      out->errors.push_back("trial " + std::to_string(trial) + ": " +
                            std::to_string(misses) + " operations missed");
    }
    const std::vector<Key> expected = stream.ExpectedKeys();
    std::string error = CheckContents(*index, expected);
    if (!error.empty()) out->errors.push_back(spec_ + ": " + error);
    if (config_.reopen_check) {
      index_.reset();
      std::string build_error;
      index_ = chameleon::MakeIndex(spec_, &build_error);
      if (index_ == nullptr || !index_->Recover()) {
        out->errors.push_back(spec_ + ": Recover() failed " + build_error);
      } else {
        error = CheckContents(*index_, expected);
        if (!error.empty()) {
          out->errors.push_back(spec_ + " after Recover(): " + error);
        }
      }
    }
    return measured;
  }

  /// Counts `n` operations as attempted before they run, and reports the
  /// total over all phases so far: if the process dies, run.py counts
  /// every operation up to the last report as failed.
  void Attempt(size_t n, PhaseOutcome* out) const {
    out->attempted += n;
    std::fprintf(stderr, "perfbench: attempted=%llu\n",
                 static_cast<unsigned long long>(attempted_before_ +
                                                 out->attempted));
  }

  /// One closed-loop segment with every op timed (the driver's partition
  /// and op semantics). Records the segment's percentiles and returns
  /// its wall time in ns.
  int64_t TimedSegment(KvIndex* index, std::span<const Operation> ops,
                       std::vector<LatencyHists>* hists, uint64_t* misses,
                       PhaseOutcome* out) {
    auto run = [index](std::span<const Operation> mine, LatencyHists* h) {
      std::vector<KeyValue> scan_buf;
      uint64_t misses = 0;
      for (const Operation& op : mine) {
        const uint64_t t0 = CycleClock::Now();
        misses += ExecuteOp(index, op, &scan_buf);
        const uint64_t ticks = CycleClock::Now() - t0;
        (chameleon::IsWriteOp(op.type) ? h->write : h->read)
            .Record(static_cast<int64_t>(ticks));
      }
      return misses;
    };
    for (LatencyHists& h : *hists) {
      h.read.Clear();
      h.write.Clear();
    }
    int64_t wall = 0;
    if (clients_ == 1) {
      const int64_t t0 = chameleon::NowNanos();
      *misses += run(ops, &(*hists)[0]);
      wall = chameleon::NowNanos() - t0;
    } else {
      const auto parts = Partition(ops, clients_);
      std::vector<uint64_t> thread_misses(clients_, 0);
      const int64_t t0 = chameleon::NowNanos();
      std::vector<std::thread> threads;
      for (size_t t = 0; t < clients_; ++t) {
        threads.emplace_back(
            [&, t] { thread_misses[t] = run(parts[t], &(*hists)[t]); });
      }
      for (std::thread& th : threads) th.join();
      wall = chameleon::NowNanos() - t0;
      for (uint64_t m : thread_misses) *misses += m;
    }
    LatencyHists segment;
    for (const LatencyHists& h : *hists) {
      segment.read.Merge(h.read);
      segment.write.Merge(h.write);
    }
    obs::LatencyHistogram all = segment.read;
    all.Merge(segment.write);
    out->segment_p50_ns.push_back(all.PercentileNanos(50) * NanosPerTick());
    out->segment_p99_ns.push_back(all.PercentileNanos(99) * NanosPerTick());
    out->segment_read_p99_ns.push_back(segment.read.PercentileNanos(99) *
                                       NanosPerTick());
    out->latency.read.Merge(segment.read);
    out->latency.write.Merge(segment.write);
    return wall;
  }

  const WorkloadConfig& config_;
  const RunOptions& options_;
  const chameleon::WorkloadDesc& desc_;
  std::span<const Key> keys_;
  std::span<const KeyValue> data_;
  std::span<const Operation> pool_;
  size_t clients_;
  std::string dir_;
  std::string spec_;
  std::unique_ptr<KvIndex> index_;
  /// Operations attempted by earlier phases of this run.
  uint64_t attempted_before_ = 0;
};

double P(const obs::LatencyHistogram& h, double pct) {
  return h.PercentileNanos(pct);
}

uint64_t Delta(const PhaseOutcome& o, Counter c) {
  return o.counters[static_cast<size_t>(c)];
}

const obs::LatencyHistogram& Phase(const PhaseOutcome& o, WritePhase p) {
  return o.phases[static_cast<size_t>(p)];
}

/// Max over mean of per-instance span counts of the layer directly under
/// the engine (the shards); 1 for unsharded stacks.
double ShardBalance(const TraceSummary& trace) {
  std::vector<double> counts;
  for (size_t i = 0; i < trace.instance_layer.size(); ++i) {
    if (trace.instance_layer[i] != Layer::kEngine) {
      counts.push_back(static_cast<double>(trace.instance_spans[i]));
    }
  }
  const bool sharded =
      std::find(trace.instance_layer.begin(), trace.instance_layer.end(),
                Layer::kEngine) != trace.instance_layer.end();
  if (!sharded || counts.empty()) return 1.0;
  double sum = 0.0;
  double max = 0.0;
  for (double c : counts) {
    sum += c;
    max = std::max(max, c);
  }
  return Ratio(max, sum / static_cast<double>(counts.size()));
}

obs::LatencyHistogram Merged(const TraceSummary& trace, Layer layer,
                             std::initializer_list<SpanOp> ops) {
  obs::LatencyHistogram h;
  for (SpanOp op : ops) h.Merge(trace.Total(layer, op));
  return h;
}

void AddPerLayer(const PhaseOutcome& plain, const PhaseOutcome& traced,
                 std::vector<Metric>* m) {
  auto add = [m](std::string name, double value, std::string unit,
                 uint64_t samples) {
    m->push_back(Metric{std::move(name), value, std::move(unit), samples});
  };
  const TraceSummary& tr = *traced.trace;
  const TraceSummary& setup = *traced.setup_trace;

  // driver
  {
    double sum = 0.0;
    double max = 0.0;
    for (uint64_t n : plain.thread_ops) {
      sum += static_cast<double>(n);
      max = std::max(max, static_cast<double>(n));
    }
    add("driver.owner_max_over_mean",
        Ratio(max, sum / static_cast<double>(plain.thread_ops.size())),
        "ratio", plain.thread_ops.size());
    add("driver.write_p99_us",
        P(plain.latency.write, 99) * NanosPerTick() / 1e3, "us",
        plain.latency.write.count());
    add("driver.fail_ratio",
        Ratio(static_cast<double>(plain.misses + traced.misses),
              static_cast<double>(plain.attempted + traced.attempted)),
        "ratio", plain.attempted + traced.attempted);
  }
  // engine
  {
    const auto& lookup = tr.Self(Layer::kEngine, SpanOp::kLookup);
    add("engine.lookup_self_ns.p50", P(lookup, 50), "ns", lookup.count());
    add("engine.lookup_self_ns.p99", P(lookup, 99), "ns", lookup.count());
    const auto& scan = tr.Self(Layer::kEngine, SpanOp::kRangeScan);
    add("engine.scan_self_ns.p50", P(scan, 50), "ns", scan.count());
    add("engine.shard_ops_max_over_mean", ShardBalance(tr), "ratio",
        tr.instance_spans.size());
  }
  // storage
  {
    const obs::LatencyHistogram writes =
        Merged(tr, Layer::kStorage, {SpanOp::kInsert, SpanOp::kErase});
    add("storage.write_ns.p50", P(writes, 50), "ns", writes.count());
    add("storage.write_ns.p99", P(writes, 99), "ns", writes.count());
    const auto& scan = tr.Total(Layer::kStorage, SpanOp::kRangeScan);
    add("storage.scan_ns.p50", P(scan, 50), "ns", scan.count());
    const auto& append = Phase(plain, WritePhase::kWalAppend);
    add("storage.wal_append_ns.p50", P(append, 50), "ns", append.count());
    const auto& wait = Phase(plain, WritePhase::kGroupCommitWait);
    add("storage.group_commit_wait_ns.p99", P(wait, 99), "ns", wait.count());
    const auto& fsync = Phase(plain, WritePhase::kFsync);
    add("storage.fsync_ns.p50", P(fsync, 50), "ns", fsync.count());
    const double appends =
        static_cast<double>(Delta(plain, Counter::kWalAppends));
    add("storage.fsyncs_per_write",
        Ratio(static_cast<double>(Delta(plain, Counter::kWalFsyncs)),
              appends),
        "ratio", Delta(plain, Counter::kWalAppends));
    add("storage.wal_bytes_per_user_byte",
        Ratio(static_cast<double>(Delta(plain, Counter::kWalBytes)),
              appends * sizeof(KeyValue)),
        "ratio", Delta(plain, Counter::kWalAppends));
  }
  // tiered
  {
    const auto& lookup = tr.Self(Layer::kTiered, SpanOp::kLookup);
    add("tiered.lookup_self_ns.p50", P(lookup, 50), "ns", lookup.count());
    add("tiered.lookup_self_ns.p99", P(lookup, 99), "ns", lookup.count());
    const double hits =
        static_cast<double>(Delta(plain, Counter::kTieredPoolHits));
    const double misses =
        static_cast<double>(Delta(plain, Counter::kTieredPoolMisses));
    add("tiered.pool_hit_ratio", Ratio(hits, hits + misses), "ratio",
        static_cast<uint64_t>(hits + misses));
    const bool disk = plain.tiered.layers > 0;
    const double lookups =
        disk ? static_cast<double>(plain.window_lookups) : 0.0;
    add("tiered.page_reads_per_lookup",
        Ratio(static_cast<double>(Delta(plain, Counter::kTieredPageReads)),
              lookups),
        "ratio", static_cast<uint64_t>(lookups));
    add("tiered.evictions_per_lookup",
        Ratio(static_cast<double>(
                  Delta(plain, Counter::kTieredPageEvictions)),
              lookups),
        "ratio", static_cast<uint64_t>(lookups));
    const auto& bulk = setup.Self(Layer::kTiered, SpanOp::kBulkLoad);
    add("tiered.bulkload_self_s",
        bulk.MeanNanos() * static_cast<double>(bulk.count()) / 1e9, "s",
        bulk.count());
  }
  // core
  {
    const auto& lookup = tr.Total(Layer::kCore, SpanOp::kLookup);
    add("core.lookup_ns.p50", P(lookup, 50), "ns", lookup.count());
    add("core.lookup_ns.p99", P(lookup, 99), "ns", lookup.count());
    add("core.probe_steps_per_lookup",
        Ratio(static_cast<double>(Delta(plain, Counter::kEbhProbeSteps)),
              static_cast<double>(Delta(plain, Counter::kLookups))),
        "ratio", Delta(plain, Counter::kLookups));
    const obs::LatencyHistogram writes =
        Merged(tr, Layer::kCore, {SpanOp::kInsert, SpanOp::kErase});
    add("core.write_ns.p50", P(writes, 50), "ns", writes.count());
    add("core.write_ns.p99", P(writes, 99), "ns", writes.count());
    const auto& block = Phase(plain, WritePhase::kRetrainBlock);
    add("core.retrain_block_ns.p99", P(block, 99), "ns", block.count());
    const uint64_t core_writes =
        Delta(plain, Counter::kInserts) + Delta(plain, Counter::kErases);
    add("core.write_lock_waits_per_write",
        Ratio(static_cast<double>(
                  Delta(plain, Counter::kIntervalLockWriteWaits)),
              static_cast<double>(core_writes)),
        "ratio", core_writes);
    add("core.query_lock_spins_per_acquire",
        Ratio(static_cast<double>(Delta(plain, Counter::kQueryLockSpins)),
              static_cast<double>(Delta(plain, Counter::kQueryLockAcquired))),
        "ratio", Delta(plain, Counter::kQueryLockAcquired));
    add("core.shifts_per_insert",
        Ratio(static_cast<double>(Delta(plain, Counter::kEbhShifts)),
              static_cast<double>(Delta(plain, Counter::kInserts))),
        "ratio", Delta(plain, Counter::kInserts));
    add("core.units_rebuilt",
        static_cast<double>(Delta(plain, Counter::kUnitsRebuilt)), "count",
        1);
    add("core.retrain_replayed_ops",
        static_cast<double>(Delta(plain, Counter::kRetrainReplayedOps)),
        "count", 1);
    const uint64_t denied = Delta(plain, Counter::kRetrainLockDenied);
    const uint64_t granted = Delta(plain, Counter::kRetrainLockAcquired);
    add("core.retrain_lock_denied_ratio",
        Ratio(static_cast<double>(denied),
              static_cast<double>(denied + granted)),
        "ratio", denied + granted);
    add("core.full_rebuilds",
        static_cast<double>(Delta(plain, Counter::kFullRebuilds)), "count",
        1);
    const auto& bulk = setup.Total(Layer::kCore, SpanOp::kBulkLoad);
    add("core.bulkload_s",
        static_cast<double>(setup.ExtentNs(Layer::kCore, SpanOp::kBulkLoad)) /
            1e9,
        "s", bulk.count());
  }
  // tracing cost
  const double plain_mops = Median(plain.segment_mops);
  const double traced_mops = Median(traced.segment_mops);
  add("trace.overhead_pct", (Ratio(plain_mops, traced_mops) - 1.0) * 100.0,
      "%", traced.segment_mops.size());
}

}  // namespace

RunReport RunWorkload(const WorkloadConfig& config,
                      const RunOptions& options) {
  RunReport report;
  RegisterSpanDecorator();
  chameleon::WorkloadDesc desc;
  chameleon::WorkloadSpecError spec_error;
  if (!chameleon::ParseWorkloadSpec(config.workload_spec, &desc,
                                    &spec_error)) {
    report.correct = false;
    report.errors.push_back(spec_error.Render());
    return report;
  }
  const size_t nproc =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t clients = std::min(config.clients, std::min<size_t>(4, nproc));

  // The dataset is fixed per workload, like the paper's data files; the
  // seed varies the operation stream.
  const std::vector<Key> keys = chameleon::GenerateDataset(
      config.dataset, options.keys, kDatasetSeed);
  const std::vector<KeyValue> data = chameleon::ToKeyValues(keys);
  Tracer& tracer = Tracer::Get();  // calibrates before anything is timed

  // Streams that keep the key set are generated once, before anything is
  // timed, and replayed cyclically, from its start by every trial.
  constexpr size_t kPoolOps = 2'000'000;
  const std::vector<Operation> pool =
      KeepsKeySet(desc)
          ? chameleon::MaterializeWorkload(desc, keys, options.seed, kPoolOps)
          : std::vector<Operation>();
  PhaseRunner runner(config, options, desc, keys, data, pool, clients);
  const double s = options.seconds;
  PhasePlan plain;
  plain.min_trials = options.trace ? 1 : kMinTrials;
  plain.window_s = options.trace ? 0.5 * s : s;
  PhaseOutcome p = runner.Run(plain);
  PhaseOutcome t;
  if (options.trace) {
    PhasePlan traced;
    traced.traced = true;
    traced.max_trials = 1;
    t = runner.Run(traced);
  }

  report.attempted = p.attempted + t.attempted;
  report.failed = p.misses + t.misses;
  for (const PhaseOutcome* o : {&p, &t}) {
    for (const std::string& e : o->errors) report.errors.push_back(e);
  }
  report.correct = report.errors.empty();
  if (!report.correct) report.failed = report.attempted;

  const uint64_t timed = p.latency.read.count() + p.latency.write.count();
  auto e2e = [&](std::string name, double value, std::string unit,
                 uint64_t samples) {
    report.end_to_end.push_back(
        Metric{std::move(name), value, std::move(unit), samples});
  };
  // Medians over all segments of all trials: one slow 50 ms stretch
  // (another tenant, a retrain pass) moves a segment, not the run's
  // figure. The gated figures are relative to the reference measured
  // right after each segment, which cancels the host's drift in speed;
  // the absolute ones are printed and kept in the result file.
  e2e("throughput_x_ref", Median(p.segment_mops_x_ref), "x",
      p.segment_mops_x_ref.size());
  e2e("lat_p50_x_ref", Median(p.segment_p50_x_ref), "x", timed);
  e2e("lat_p99_x_ref", Median(p.segment_p99_x_ref), "x", timed);
  e2e("read_p99_x_ref", Median(p.segment_read_p99_x_ref), "x",
      p.latency.read.count());
  e2e("setup_s", Median(p.setup_s), "s", p.setup_s.size());
  e2e("bytes_per_key", Median(p.bytes_per_key), "B", p.bytes_per_key.size());
  auto raw = [&](std::string name, double value, std::string unit,
                 uint64_t samples) {
    report.raw.push_back(
        Metric{std::move(name), value, std::move(unit), samples});
  };
  raw("throughput_mops", Median(p.segment_mops), "Mops/s",
      p.segment_mops.size());
  raw("lat_p50_us", Median(p.segment_p50_ns) / 1e3, "us", timed);
  raw("lat_p99_us", Median(p.segment_p99_ns) / 1e3, "us", timed);
  raw("read_p99_us", Median(p.segment_read_p99_ns) / 1e3, "us",
      p.latency.read.count());
  raw("ref_ns_per_op", Median(p.ref_ns), "ns", p.ref_ns.size());
  raw("ref_p50_ns", Median(p.ref_p50_ns), "ns", p.ref_p50_ns.size());
  raw("ref_p99_ns", Median(p.ref_p99_ns), "ns", p.ref_p99_ns.size());
  report.series.emplace_back("segment_mops", p.segment_mops);
  report.series.emplace_back("segment_p50_ns", p.segment_p50_ns);
  report.series.emplace_back("segment_p99_ns", p.segment_p99_ns);
  report.series.emplace_back("segment_read_p99_ns", p.segment_read_p99_ns);
  report.series.emplace_back("ref_ns", p.ref_ns);
  report.series.emplace_back("ref_p50_ns", p.ref_p50_ns);
  report.series.emplace_back("ref_p99_ns", p.ref_p99_ns);
  report.series.emplace_back("setup_s", p.setup_s);
  if (options.trace && t.trace != nullptr && t.setup_trace != nullptr) {
    report.series.emplace_back("traced_segment_mops", t.segment_mops);
    AddPerLayer(p, t, &report.per_layer);
    report.spans = t.trace->kept;
    report.spans.insert(report.spans.begin(), t.setup_trace->kept.begin(),
                        t.setup_trace->kept.end());
  }

  auto prov = [&](std::string key, std::string json) {
    report.provenance.emplace_back(std::move(key), std::move(json));
  };
  prov("workload", JsonString(config.name));
  prov("workload_spec", JsonString(config.workload_spec));
  prov("stack", JsonString(config.stack));
  prov("traced_stack", JsonString(options.trace ? config.traced_stack : ""));
  prov("dataset", JsonString(chameleon::DatasetName(config.dataset)));
  prov("dataset_keys", std::to_string(options.keys));
  prov("dataset_seed", std::to_string(kDatasetSeed));
  prov("seed", std::to_string(options.seed));
  prov("seconds", std::to_string(options.seconds));
  prov("client_threads", std::to_string(clients));
  prov("batch", "1");
  prov("loop", JsonString("closed"));
  prov("retrainer_interval_ms", config.retrainer ? "100" : "0");
  prov("fsync_policy", JsonString(FsyncPolicy(config.stack)));
  if (options.trace) {
    prov("trace_sample_every", std::to_string(Tracer::kSampleEvery));
    prov("trace_span_cost_ns", std::to_string(tracer.SpanCostNs()));
    prov("trace_child_cost_ns", std::to_string(tracer.ChildCostNs()));
  }
  prov("disk_pages", std::to_string(p.tiered.pages));
  prov("disk_frames", std::to_string(p.tiered.frames));
  prov("disk_page_size", std::to_string(p.tiered.page_size));
  prov("nproc", std::to_string(nproc));
  prov("cpu_model", JsonString(CpuModel()));
  prov("simd_tier", JsonString(chameleon::simd::SimdLevelName(
                        chameleon::simd::ActiveSimdLevel())));
  prov("compiler", JsonString(__VERSION__));
  prov("build_type", JsonString(PERFBENCH_BUILD_TYPE));
  return report;
}

}  // namespace perfbench
