// Tiered storage bench: how the Disk(...) buffer pool behaves when its
// frame budget is a fraction of the resident page run, and what the
// delta-merge write path costs.
//
// Sections:
//  1. frames sweep — bulk-load a LOGN dataset into the disk tier, then
//     replay a read stream with the pool sized at ~10%, 50%, and 100%
//     of the data pages. Two streams: a fixed zipf(0.9), and a hotspot
//     covering 20% of the keys that moves every ops/20 reads (the
//     locally skewed, drifting access the paper targets). Reports mean
//     read latency, pool hit rate, evictions, and physical page reads
//     per stream and config. Expected shape: hit rate climbs toward 1.0
//     and evictions collapse to zero as the budget approaches the
//     working set.
//  2. write leg — mixed read/write replay against a small pool and a
//     deliberately low merge threshold, so the delta spills into page
//     run rewrites several times. Reports merge count, residual
//     delta/tombstone backlog, and the merge_scan / merge_write /
//     merge_install phase breakdown.
//
// Extra flags (on top of the common harness set):
//   --dir=PATH   scratch directory for the page files
//                (default ./tiered-scratch, wiped per config)
//   --merge=N    delta merge threshold for section 2 (default 1024)
//
// All numbers are container-I/O numbers: the scratch directory usually
// sits on overlayfs/tmpfs, so "page read" means a syscall plus page
// cache, not device latency. Hit rates and eviction counts are exact
// regardless; only the ns columns shift on real disks.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/phase_timer.h"
#include "src/tiered/tiered_index.h"

using namespace chameleon;
using namespace chameleon::bench;

namespace {

struct TieredFlags {
  std::string dir = "tiered-scratch";
  size_t merge = 1024;
};

}  // namespace

int main(int argc, char** argv) {
  TieredFlags flags;
  const Options opt = Options::Parse(
      argc, argv,
      {StrFlag("--dir=", &flags.dir), NumFlag("--merge=", &flags.merge, 1)},
      {.spec = false});
  JsonReport report("tiered", opt);

  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kLogn, opt.scale, opt.seed);
  const std::vector<KeyValue> data = ToKeyValues(keys);
  const size_t pages =
      (data.size() + tiered::kEntriesPerPage - 1) / tiered::kEntriesPerPage;

  // --- Section 1: pool hit rate vs frame budget -----------------------------
  const std::string workloads[] = {
      "read(zipf=0.9)",
      "read(dist=hotspot(width=20%,period=" +
          std::to_string(opt.ops / 20 > 0 ? opt.ops / 20 : 1) + "))"};
  std::printf("=== tiered: frames sweep (LOGN, %zu keys = %zu pages) ===\n",
              data.size(), pages);
  std::printf("%-42s %8s %6s %10s %10s %10s %10s\n", "workload", "frames",
              "pct", "mean_ns", "hit_rate", "evictions", "page_reads");
  PrintRule(102);
  const size_t sweep[] = {pages / 10 > 0 ? pages / 10 : 1,
                          pages / 2 > 0 ? pages / 2 : 1, pages};
  for (const std::string& workload : workloads) {
    const std::vector<Operation> ops = MaterializeWorkload(
        ParseWorkloadOrDie(workload), keys, opt.seed + 1, opt.ops);
    for (size_t frames : sweep) {
      const std::string dir =
          flags.dir + "/sweep-f" + std::to_string(frames);
      std::filesystem::remove_all(dir);
      const std::string spec =
          "Disk(" + dir + ",frames=" + std::to_string(frames) + "):Chameleon";
      std::unique_ptr<KvIndex> index = MakeIndexOrDie(spec);
      index->BulkLoad(data);
      // One untimed pass warms the pool to steady state, so the measured
      // pass reports the budget's sustained hit rate, not the cold faults
      // (which are identical across configs and would flatten the sweep).
      Replay(index.get(), ops, ReplayOptions{}, nullptr);
      TieredStatsBlock warm;
      CollectTieredStats(index.get(), &warm);
      const ReplayResult result =
          Replay(index.get(), ops, ReplayOptionsFor(opt), report.lat());
      TieredStatsBlock stats;
      CollectTieredStats(index.get(), &stats);
      const uint64_t hits = stats.pool.hits - warm.pool.hits;
      const uint64_t misses = stats.pool.misses - warm.pool.misses;
      const double hit_rate =
          hits + misses == 0
              ? 0.0
              : static_cast<double>(hits) / static_cast<double>(hits + misses);
      const double pct =
          pages > 0 ? static_cast<double>(frames) / pages * 100.0 : 0.0;
      const uint64_t evictions = stats.pool.evictions - warm.pool.evictions;
      const uint64_t page_reads = stats.pool.page_reads - warm.pool.page_reads;
      std::printf("%-42s %8zu %5.0f%% %10.1f %10.4f %10llu %10llu\n",
                  workload.c_str(), frames, pct, result.MeanNs(), hit_rate,
                  static_cast<unsigned long long>(evictions),
                  static_cast<unsigned long long>(page_reads));
      report.AddRow()
          .Str("section", "frames_sweep")
          .Str("workload", workload)
          .Num("frames", static_cast<double>(frames))
          .Num("frames_pct", pct)
          .Num("pages", static_cast<double>(pages))
          .Num("mean_ns", result.MeanNs())
          .Num("hit_rate", hit_rate)
          .Num("evictions", static_cast<double>(evictions))
          .Num("page_reads", static_cast<double>(page_reads));
      index.reset();
      std::filesystem::remove_all(dir);
      std::fflush(stdout);
    }
  }

  // --- Section 2: delta-merge write path ------------------------------------
  // Small pool (the 10% budget) + low merge threshold: the mixed replay
  // keeps spilling the delta into page-run rewrites, so every merge
  // phase records real samples. Single writer — the tiered stack is
  // externally serialized like any other non-concurrent KvIndex.
  std::printf("\n=== tiered: delta-merge write path (50%% writes, "
              "merge threshold %zu) ===\n",
              flags.merge);
  obs::ResetPhaseHistograms();
  const std::string wdir = flags.dir + "/write-leg";
  std::filesystem::remove_all(wdir);
  const std::string wspec =
      "Disk(" + wdir + ",frames=" + std::to_string(sweep[0]) +
      ",merge=" + std::to_string(flags.merge) + "):Chameleon";
  {
    std::unique_ptr<KvIndex> index = MakeIndexOrDie(wspec);
    index->BulkLoad(data);
    const std::vector<Operation> ops = MaterializeWorkload(
        ParseWorkloadOrDie("mixed(w=0.5)"), keys, opt.seed + 2, opt.ops);
    const ReplayResult result =
        Replay(index.get(), ops, ReplayOptions{}, report.lat());
    TieredStatsBlock stats;
    CollectTieredStats(index.get(), &stats);
    std::printf("mixed replay: %.1f ns/op, %llu merges, delta %zu, "
                "tombstones %zu, %llu pages on disk\n",
                result.MeanNs(),
                static_cast<unsigned long long>(stats.merges),
                stats.delta_entries, stats.tombstones,
                static_cast<unsigned long long>(stats.pages));
    report.AddRow()
        .Str("section", "write_leg")
        .Num("mean_ns", result.MeanNs())
        .Num("merges", static_cast<double>(stats.merges))
        .Num("delta_entries", static_cast<double>(stats.delta_entries))
        .Num("tombstones", static_cast<double>(stats.tombstones))
        .Num("pages", static_cast<double>(stats.pages));

    std::printf("  %-16s %10s %12s %12s\n", "phase", "count", "mean_us",
                "p99_us");
    for (obs::WritePhase phase :
         {obs::WritePhase::kMergeScan, obs::WritePhase::kMergeWrite,
          obs::WritePhase::kMergeInstall}) {
      const obs::LatencyHistogram& h = obs::PhaseHistogram(phase);
      const std::string_view name = obs::WritePhaseName(phase);
      std::printf("  %-16.*s %10llu %12.1f %12.1f\n",
                  static_cast<int>(name.size()), name.data(),
                  static_cast<unsigned long long>(h.count()),
                  h.MeanNanos() / 1e3, h.PercentileNanos(99) / 1e3);
      report.AddRow()
          .Str("section", "merge_phase")
          .Str("phase", name)
          .Num("count", static_cast<double>(h.count()))
          .Num("mean_ns", h.MeanNanos())
          .Num("p99_ns", h.PercentileNanos(99));
    }
  }
  std::filesystem::remove_all(wdir);

  std::printf("\nExpected shape: hit rate rises with the frame budget and "
              "evictions vanish at 100%%; merge cost is dominated by "
              "merge_write (sequential page rewrite, fsync and commit) with "
              "merge_install a short pool-reset tail\n");
  report.Write();
  return 0;
}
