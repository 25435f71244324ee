// Durability bench (storage layer): write-path overhead of the WAL on
// the Fig. 11 mixed workload, recovery time as a function of WAL
// length, and a kill-and-recover fault-injection mode for CI.
//
// Sections:
//  1. overhead  — bare Chameleon vs Durable:Chameleon across the three
//     fsync policies (none / every64 / always) on a 50% write mix;
//  2. recovery  — crash + recover after growing write counts; reports
//     replayed record counts and recovery wall time, the replayed tail
//     bounded by the checkpoints the writes trigger;
//  3. --crash-after=N — applies exactly N acknowledged writes under
//     fsync=always, simulates a crash, recovers, and verifies every
//     acknowledged write survived. Exits non-zero on any loss (the CI
//     crash-recovery smoke step).
//
// Extra flags (on top of the common harness set):
//   --crash-after=N  run only the kill-and-recover verification
//   --dir=PATH       durability scratch directory
//                    (default ./durability-scratch, wiped per section)
//   --spec=STACK     measure/crash the given adapter stack instead of
//                    the default Durable(...) wrapper, e.g.
//                    --spec='Sharded2:Durable(durability-scratch/nested,fsync=always)'
//                    With --spec, section 1 compares volatile Chameleon
//                    against the full stack and section 2 is skipped
//                    (its wal().Sync() hook needs the concrete wrapper).

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/index_spec.h"
#include "src/storage/durable_index.h"
#include "src/util/timer.h"

using namespace chameleon;
using namespace chameleon::bench;

namespace {

struct DurabilityFlags {
  size_t crash_after = 0;  // 0 = run the measurement sections
  std::string dir = "durability-scratch";
};

std::unique_ptr<DurableIndex> MakeDurable(const std::string& dir,
                                          FsyncPolicy fsync) {
  DurableOptions options;
  options.wal.fsync = fsync;
  auto index = std::make_unique<DurableIndex>(MakeIndex("Chameleon"), dir,
                                              options);
  return index;
}

/// Throughput for one section-1 replay: the historical busy-time mean
/// (1e3 / MeanNs, bit-comparable with pre-multi-writer blobs) on one
/// thread, the aggregate wall-clock rate once writers fan out.
double SectionMops(const ReplayResult& result, size_t threads) {
  if (threads > 1) return result.ThroughputMops();
  const double ns = result.MeanNs();
  return ns > 0.0 ? 1e3 / ns : 0.0;
}

const char* FsyncName(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kEveryN: return "every64";
    case FsyncPolicy::kNone: return "none";
  }
  return "?";
}

/// Removes every Durable(<dir>) directory named in `spec`. An outer
/// Sharded roots its shard stacks *under* these directories
/// (dir/shard-<i>), so remove_all on each root covers the whole stack.
void WipeDurableDirs(const std::string& spec) {
  SpecError error;
  const std::unique_ptr<SpecNode> node = ParseIndexSpec(spec, &error);
  if (node == nullptr) return;
  for (const std::string& dir : DurableDirsOf(*node)) {
    std::filesystem::remove_all(dir);
  }
}

/// Section 3 / CI smoke: N acknowledged writes, crash, recover, verify.
/// Works on any durable adapter stack: the default single
/// Durable(fsync=always) wrapper, or whatever --spec names (e.g.
/// Sharded2:Durable(...) — per-shard WAL stacks crash and recover
/// together).
int RunCrashRecover(const Options& opt, const DurabilityFlags& flags) {
  const std::string stack =
      opt.spec.empty() ? "Durable(" + flags.dir + "/crash,fsync=always)"
                       : opt.spec;
  const std::string spec = stack + ":Chameleon";
  WipeDurableDirs(spec);
  std::printf("crash-recover stack: %s\n", spec.c_str());
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kFace, opt.scale / 5, opt.seed);

  std::map<Key, Value> reference;
  for (const KeyValue& kv : ToKeyValues(keys)) reference[kv.key] = kv.value;
  size_t acked = 0;
  {
    std::unique_ptr<KvIndex> index = MakeIndexOrDie(spec);
    index->BulkLoad(ToKeyValues(keys));
    // One source across the retries: each pass continues the stream.
    WorkloadGenerator gen(keys, opt.seed + 1);
    const std::unique_ptr<OpSource> source =
        MakeOpSource(ParseWorkloadOrDie("insdel(u=0.6)"), gen, keys);
    while (acked < flags.crash_after) {
      for (const Operation& op : Drain(*source, flags.crash_after - acked)) {
        if (op.type == OpType::kInsert) {
          if (index->Insert(op.key, op.value)) {
            reference[op.key] = op.value;
            ++acked;
          }
        } else if (index->Erase(op.key)) {
          reference.erase(op.key);
          ++acked;
        }
      }
    }
    if (!SimulateCrashStack(index.get())) {
      std::fprintf(stderr, "FAIL: spec '%s' has no durable layer to crash\n",
                   spec.c_str());
      return 1;
    }
  }
  std::printf("crashed after %zu acknowledged writes; recovering...\n", acked);

  std::unique_ptr<KvIndex> recovered = MakeIndexOrDie(spec);
  Timer timer;
  if (!recovered->Recover()) {
    std::fprintf(stderr, "FAIL: recovery returned false\n");
    return 1;
  }
  const double recovery_ms = timer.ElapsedMillis();
  size_t lost = 0;
  if (recovered->size() != reference.size()) {
    std::fprintf(stderr, "FAIL: size %zu != expected %zu\n", recovered->size(),
                 reference.size());
    ++lost;
  }
  for (const auto& [key, value] : reference) {
    Value v = 0;
    if (!recovered->Lookup(key, &v) || v != value) {
      std::fprintf(stderr, "FAIL: lost acknowledged write key=%llu\n",
                   static_cast<unsigned long long>(key));
      if (++lost > 10) break;
    }
  }
  recovered.reset();
  WipeDurableDirs(spec);
  if (lost > 0) return 1;
  std::printf("CRASH-RECOVERY OK: %zu acked writes, %zu live keys, %.2f ms\n",
              acked, reference.size(), recovery_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  DurabilityFlags flags;
  const Options opt = Options::Parse(
      argc, argv,
      {NumFlag("--crash-after=", &flags.crash_after),
       StrFlag("--dir=", &flags.dir)});
  if (flags.crash_after > 0) return RunCrashRecover(opt, flags);

  JsonReport report("durability", opt);
  const size_t init = opt.scale / 5;
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kFace, init, opt.seed);
  const std::vector<KeyValue> data = ToKeyValues(keys);
  const WorkloadDesc mixed = ParseWorkloadOrDie("mixed(w=0.5)");

  // --- Section 1: write-path overhead on the Fig. 11 mixed workload ---------
  // Replays honor --rthreads (ReplayOptionsFor): with R > 1 the same
  // mixed stream runs on R key-partitioned writer threads, so
  // this section doubles as the multi-writer WAL overhead measurement
  // (group commit under real contention) and the phase-sum additivity
  // check below covers the concurrent path too.
  const size_t write_threads = opt.rthreads;
  std::printf("=== durability: write-path overhead (FACE, 50%% writes, "
              "%zu ops, %zu write thread%s) ===\n",
              opt.ops, write_threads, write_threads == 1 ? "" : "s");
  std::printf("%-22s %12s %10s\n", "config", "Mops/s", "overhead");
  PrintRule(46);

  // Untimed warm-up pass (branch predictors, page cache, frequency
  // ramp) so the first measured row is not systematically slower.
  {
    std::unique_ptr<KvIndex> warm = MakeIndex("Chameleon");
    warm->BulkLoad(data);
    Replay(warm.get(), MaterializeWorkload(mixed, keys, opt.seed + 1, opt.ops),
           ReplayOptionsFor(opt));
  }

  double baseline_mops = 0.0;
  {
    std::unique_ptr<KvIndex> index = MakeIndex("Chameleon");
    index->BulkLoad(data);
    const std::vector<Operation> ops =
        MaterializeWorkload(mixed, keys, opt.seed + 1, opt.ops);
    baseline_mops =
        SectionMops(Replay(index.get(), ops, ReplayOptionsFor(opt),
                           report.lat()),
                    write_threads);
    std::printf("%-22s %12.3f %9s\n", "Chameleon (volatile)", baseline_mops,
                "--");
    report.AddRow()
        .Str("section", "overhead")
        .Str("config", "volatile")
        .Num("throughput_mops", baseline_mops)
        .Num("overhead_pct", 0.0);
  }
  // Each measured stack is built from its composed spec string — the
  // same path `--spec` takes — so the factory plumbing itself is what
  // gets benchmarked.
  std::vector<std::pair<std::string, std::string>> stacks;  // label, spec
  if (opt.spec.empty()) {
    for (FsyncPolicy fsync :
         {FsyncPolicy::kNone, FsyncPolicy::kEveryN, FsyncPolicy::kAlways}) {
      const char* value = fsync == FsyncPolicy::kAlways   ? "always"
                          : fsync == FsyncPolicy::kEveryN ? "everyN"
                                                          : "none";
      stacks.emplace_back(
          std::string("fsync_") + FsyncName(fsync),
          "Durable(" + flags.dir + "/overhead-" + FsyncName(fsync) +
              ",fsync=" + value + "):Chameleon");
    }
  } else {
    stacks.emplace_back(opt.spec, ComposeSpec("Chameleon", opt));
  }
  for (const auto& [label, spec] : stacks) {
    WipeDurableDirs(spec);
    // Phase histograms are process-global; reset per stack so each
    // config's breakdown covers exactly its own replay.
    obs::ResetPhaseHistograms();
    std::unique_ptr<KvIndex> index = MakeIndexOrDie(spec);
    RequireConcurrentWritesOrDie(*index, opt, "bench_durability",
                                 "its overhead section replays "
                                 "mixed(w=0.5) on --rthreads writers");
    index->BulkLoad(data);
    const std::vector<Operation> ops =
        MaterializeWorkload(mixed, keys, opt.seed + 1, opt.ops);
    const double mops =
        SectionMops(Replay(index.get(), ops, ReplayOptionsFor(opt),
                           report.lat()),
                    write_threads);
    const double overhead =
        baseline_mops > 0.0 ? (baseline_mops / mops - 1.0) * 100.0 : 0.0;
    std::printf("%-22s %12.3f %8.1f%%\n", label.c_str(), mops, overhead);
    report.AddRow()
        .Str("section", "overhead")
        .Str("config", label)
        .Num("throughput_mops", mops)
        .Num("overhead_pct", overhead);

    // Write-latency breakdown: one row per phase that recorded samples,
    // plus a consistency row. kWalAppend + kGroupCommitWait + kApply
    // are the additive phases of kWriteTotal (kFsync nests inside the
    // leader's commit wait; kRetrainBlock nests inside kApply). Each
    // phase's contribution is weighted by its own sample count — under
    // fsync=everyN only 1-in-N writes pays a commit wait, so its mean
    // must be amortized over all writes before comparing against the
    // write_total mean. The residual is the shared maintenance-gate
    // acquisition, bookkeeping, and (at sub-microsecond write latency)
    // the nested spans' own clock-read cost. Spans are per-call RAII on
    // each writer's own stack, so the count-weighted sum stays additive
    // with any number of concurrent writers — enforced below.
    double additive_sum_ns = 0.0;
    std::printf("  %-20s %10s %10s %10s %10s\n", "phase", "count",
                "mean_ns", "p50_ns", "p99_ns");
    for (size_t p = 0; p < obs::kNumWritePhases; ++p) {
      const auto phase = static_cast<obs::WritePhase>(p);
      const obs::LatencyHistogram& h = obs::PhaseHistogram(phase);
      if (h.count() == 0) continue;
      const std::string_view name = obs::WritePhaseName(phase);
      std::printf("  %-20.*s %10llu %10.0f %10.0f %10.0f\n",
                  static_cast<int>(name.size()), name.data(),
                  static_cast<unsigned long long>(h.count()), h.MeanNanos(),
                  h.PercentileNanos(50), h.PercentileNanos(99));
      report.AddRow()
          .Str("section", "phase")
          .Str("config", label)
          .Str("phase", name)
          .Num("count", static_cast<double>(h.count()))
          .Num("mean_ns", h.MeanNanos())
          .Num("p50_ns", h.PercentileNanos(50))
          .Num("p99_ns", h.PercentileNanos(99))
          .Num("max_ns", h.MaxNanos());
      if (phase == obs::WritePhase::kWalAppend ||
          phase == obs::WritePhase::kGroupCommitWait ||
          phase == obs::WritePhase::kApply) {
        additive_sum_ns += h.MeanNanos() * static_cast<double>(h.count());
      }
    }
    const obs::LatencyHistogram& total_hist =
        obs::PhaseHistogram(obs::WritePhase::kWriteTotal);
    if (total_hist.count() > 0) {
      const double additive_mean_ns =
          additive_sum_ns / static_cast<double>(total_hist.count());
      const double total_mean_ns = total_hist.MeanNanos();
      const double coverage_pct =
          total_mean_ns > 0.0 ? additive_mean_ns / total_mean_ns * 100.0 : 0.0;
      std::printf("  phase sum (count-weighted): %.0f ns of %.0f ns "
                  "write_total mean (%.1f%% coverage)\n",
                  additive_mean_ns, total_mean_ns, coverage_pct);
      report.AddRow()
          .Str("section", "phase_sum")
          .Str("config", label)
          .Num("additive_mean_ns", additive_mean_ns)
          .Num("write_total_mean_ns", total_mean_ns)
          .Num("coverage_pct", coverage_pct);
      // Additivity invariant: a phase sum above write_total means a
      // span got double-counted (e.g. one phase's work attributed to
      // two writers). 10% headroom absorbs clock-read noise on
      // sub-microsecond writes.
      if (additive_mean_ns <= 0.0 ||
          additive_mean_ns > total_mean_ns * 1.10) {
        std::fprintf(stderr,
                     "FAIL: %s phase sum %0.f ns not additive against "
                     "write_total %.0f ns (coverage %.1f%%)\n",
                     label.c_str(), additive_mean_ns, total_mean_ns,
                     coverage_pct);
        return 1;
      }
    }
    index.reset();
    WipeDurableDirs(spec);
    std::fflush(stdout);
  }

  // --- Section 2: recovery time vs WAL length -------------------------------
  // The snapshot absorbs the bulk load, then `wal_records` writes go to
  // the log before the crash. Writes checkpoint on their own once the
  // WAL grew by `checkpoint_wal_bytes` (1 MiB: ~42k inserts of 25 B),
  // so `replayed` is the tail since the last checkpoint: all of
  // `wal_records` below that cadence, less than one cadence beyond it.
  // Recovery = native snapshot load + linear replay of that tail.
  std::printf("\n=== durability: recovery time vs WAL length ===\n");
  if (!opt.spec.empty()) {
    std::printf("(skipped: --spec stacks expose no wal().Sync() hook; the\n"
                " deterministic-tail setup needs the concrete Durable "
                "wrapper)\n");
    report.Write();
    return 0;
  }
  std::printf("%12s %12s %14s %12s\n", "wal_records", "replayed",
              "recovery_ms", "live_keys");
  PrintRule(54);
  for (size_t wal_records : {opt.ops / 4, opt.ops, opt.ops * 4}) {
    const std::string dir = flags.dir + "/recovery";
    std::filesystem::remove_all(dir);
    {
      // fsync=none keeps WAL generation fast; SimulateCrash is preceded
      // by an explicit Sync so the whole tail survives and the replayed
      // count is deterministic.
      auto index = MakeDurable(dir, FsyncPolicy::kNone);
      index->BulkLoad(data);
      for (const Operation& op :
           MaterializeWorkload(ParseWorkloadOrDie("insdel(u=0.7)"), keys,
                               opt.seed + 2, wal_records)) {
        if (op.type == OpType::kInsert) {
          index->Insert(op.key, op.value);
        } else {
          index->Erase(op.key);
        }
      }
      index->wal().Sync();
      index->SimulateCrash();
    }
    auto recovered = MakeDurable(dir, FsyncPolicy::kNone);
    if (!recovered->Recover()) {
      std::fprintf(stderr, "FAIL: recovery failed at %zu records\n",
                   wal_records);
      return 1;
    }
    std::printf("%12zu %12zu %14.2f %12zu\n", wal_records,
                recovered->last_recovery_replayed(),
                recovered->last_recovery_ms(), recovered->size());
    report.AddRow()
        .Str("section", "recovery")
        .Num("wal_records", static_cast<double>(wal_records))
        .Num("replayed", static_cast<double>(recovered->last_recovery_replayed()))
        .Num("recovery_ms", recovered->last_recovery_ms())
        .Num("live_keys", static_cast<double>(recovered->size()));
    recovered.reset();
    std::filesystem::remove_all(dir);
    std::fflush(stdout);
  }

  std::printf("\nExpected shape: fsync=none ~free, fsync=always dominated by "
              "device sync latency; replayed == wal_records up to one "
              "checkpoint cadence (1 MiB of WAL) and below it beyond; "
              "recovery_ms linear in replayed records on top of a "
              "native-snapshot load\n");
  report.Write();
  return 0;
}
