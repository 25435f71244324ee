// chameleon_inspect: build (or compose via --spec) an index over a
// synthetic dataset, replay a workload against it, and dump structure,
// counters, and the per-unit access heatmap as one JSON document.
//
// The operational companion to --series: a bench run's series JSONL
// shows *when* heat concentrated; this tool shows *where* — which
// h-level unit key ranges are hot, with absolute read/write counts.
//
// Usage:
//   chameleon_inspect [harness flags] [--index=NAME] [--dataset=NAME]
//                     [--sigma=S] [--top=K] [--out=PATH] [--prom]
//                     [--kernels]
//
//   --index=NAME   leaf index to build (default Chameleon); the shared
//                  --spec adapter stack wraps it like any bench
//   --dataset=NAME UDEN | OSMC | LOGN | FACE (default UDEN)
//   --sigma=S      use the Fig. 9 clustered-skew generator with cluster
//                  sigma S instead of --dataset
//   --top=K        hottest units listed individually (default 8)
//   --out=PATH     write the JSON there instead of stdout
//   --prom         also print the Prometheus rendering of the metrics
//                  registry to stderr after the replay
//   --tiered       require a Disk(...) layer in the composed stack and
//                  fail (exit 2) when there is none. The "tiered" JSON
//                  block itself is emitted automatically whenever the
//                  stack pages its leaves to disk — the flag only turns
//                  "silently not tiered" into a loud error for scripts
//                  that specifically probe the disk tier.
//   --kernels      print CPU features, the SIMD probe-kernel tiers this
//                  build+host can run, the dispatched tier, and the
//                  kernel selected per operation (JSON), then exit.
//                  Honors CHAMELEON_SIMD_LEVEL, so it shows exactly
//                  what a bench run under the same env would use.
//
// The document's members, in order: spec, workload, dataset, sigma,
// lsn, scale, ops, seed, mean_ns, size, size_bytes, structure, build
// (the --json blobs' block, WriteBuildJson), host (WriteHostJson: CPU
// model and vCPU count), num_units, hottest_unit, top_units, heatmap,
// write_contention, tiered (only when the stack has a Disk layer),
// counters (WriteCountersJson).
//
// Shared harness flags (--scale, --ops, --seed, --spec, --series, ...)
// all apply; --scale sizes the dataset and --ops the replay. The
// replayed stream is --workload=SPEC, any workload-grammar spec
// (ycsb-a..f, mixed(w=W), drifting hotspots, insdel); the default is
// read(zipf=0.9), skewed enough that the hot range is visible.

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/data/skew.h"
#include "src/tiered/tiered_index.h"

using namespace chameleon;
using namespace chameleon::bench;

namespace {

struct InspectFlags {
  std::string index = "Chameleon";
  std::string dataset = "UDEN";
  double sigma = 0.0;  // > 0 selects GenerateClusteredSkew
  size_t top = 8;
  std::string out;
  bool prom = false;
  bool kernels = false;
  bool tiered = false;
};

std::vector<Key> MakeKeys(const InspectFlags& f, const Options& opt) {
  if (f.sigma > 0.0) {
    return GenerateClusteredSkew(opt.scale, f.sigma, opt.seed);
  }
  for (DatasetKind kind : kAllDatasets) {
    if (f.dataset == DatasetName(kind)) {
      return GenerateDataset(kind, opt.scale, opt.seed);
    }
  }
  std::fprintf(stderr,
               "ERROR: unknown --dataset \"%s\" (UDEN, OSMC, LOGN, FACE)\n",
               f.dataset.c_str());
  std::exit(2);
}

void PrintUnitJson(FILE* out, const obs::UnitHeat& u, size_t index) {
  std::fprintf(out,
               "{\"unit\": %zu, \"lo\": %llu, \"hi\": %llu, "
               "\"reads\": %llu, \"writes\": %llu, \"heat\": %llu}",
               index, static_cast<unsigned long long>(u.lo),
               static_cast<unsigned long long>(u.hi),
               static_cast<unsigned long long>(u.reads),
               static_cast<unsigned long long>(u.writes),
               static_cast<unsigned long long>(u.heat()));
}

// --kernels: the operational answer to "which probe kernel will this
// host actually run?". Dumps the cpuid feature set, the tiers present
// in this build AND supported by this CPU, the dispatched tier (after
// any CHAMELEON_SIMD_LEVEL override), and the kernel each EbhLeaf
// operation resolves to — range_collect and range_collect_sorted can
// differ from the tier name (SSE2 has no unsigned 64-bit compare and
// NEON no lane compress, so their tables borrow scalar range kernels).
void PrintKernels() {
  const simd::ProbeKernels& k = simd::ActiveKernels();
  std::printf("{\n  \"cpu_features\": \"%s\",\n",
              JsonEscape(simd::CpuFeatureString()).c_str());
  std::printf("  \"available_levels\": [");
  const std::vector<simd::SimdLevel> levels = simd::AvailableSimdLevels();
  for (size_t i = 0; i < levels.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                std::string(simd::SimdLevelName(levels[i])).c_str());
  }
  std::printf("],\n");
  std::printf("  \"active_level\": \"%s\",\n", k.name);
  std::printf(
      "  \"kernels\": {\"find_in_window\": \"%s\", \"find_nearest\": "
      "\"%s\", \"range_collect\": \"%s\", \"range_collect_sorted\": "
      "\"%s\"},\n",
      k.name, k.name, k.range_name, k.sorted_name);
  std::printf("  \"simd_build\": %s\n}\n",
#ifdef CHAMELEON_SIMD_ENABLED
              "true"
#else
              "false"
#endif
  );
}

}  // namespace

int main(int argc, char** argv) {
  InspectFlags flags;
  const Options opt = Options::Parse(
      argc, argv,
      {StrFlag("--index=", &flags.index),
       StrFlag("--dataset=", &flags.dataset),
       NumFlag("--sigma=", &flags.sigma, std::numeric_limits<double>::min()),
       NumFlag("--top=", &flags.top), StrFlag("--out=", &flags.out),
       SwitchFlag("--prom", &flags.prom),
       SwitchFlag("--kernels", &flags.kernels),
       SwitchFlag("--tiered", &flags.tiered)},
      {.workload = true});
  if (flags.kernels) {
    PrintKernels();
    return 0;
  }
  // The report powers --series/--trace/--json plumbing; the inspect
  // JSON below is separate and always emitted.
  JsonReport report("chameleon_inspect", opt);

  const std::vector<Key> keys = MakeKeys(flags, opt);
  const std::vector<KeyValue> data = ToKeyValues(keys);
  std::unique_ptr<KvIndex> index = MakeBenchIndex(flags.index, opt);
  // --tiered is a probe of the disk tier; running it against a stack
  // with no Disk(...) layer would silently report nothing. Same idiom
  // as the --rthreads capability rejection: hard loud error.
  if (flags.tiered) {
    TieredStatsBlock probe;
    if (!CollectTieredStats(index.get(), &probe)) {
      std::fprintf(stderr,
                   "ERROR: --tiered requires a Disk(...) layer, but spec "
                   "\"%s\" has none\n",
                   ComposeSpec(flags.index, opt).c_str());
      std::exit(2);
    }
  }
  const WorkloadDesc workload = ParseWorkloadOrDie(
      opt.workload.empty() ? "read(zipf=0.9)" : opt.workload);
  // With a write-bearing workload, honoring a multi-threaded request
  // needs concurrent-write support from this exact composed stack.
  // Single-stack tool: no row to skip to, so an unsupported stack is a
  // hard loud error, not a silent R=1 run.
  if (workload.has_writes()) {
    RequireConcurrentWritesOrDie(*index, opt, "chameleon_inspect",
                                 "the workload makes the replay "
                                 "write-bearing");
  }
  index->BulkLoad(data);

  const std::vector<Operation> ops =
      MaterializeWorkload(workload, keys, opt.seed + 1, opt.ops);
  const ReplayResult result =
      Replay(index.get(), ops, ReplayOptionsFor(opt), report.lat());

  const obs::Heatmap heat = index->HeatmapSnapshot();
  const obs::Heatmap hottest = obs::TopKHottest(heat, flags.top);
  const size_t hot_index = obs::HottestUnit(heat);

  FILE* out = stdout;
  if (!flags.out.empty()) {
    out = std::fopen(flags.out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "ERROR: cannot write --out=%s\n",
                   flags.out.c_str());
      return 1;
    }
  }

  const IndexStats stats = index->Stats();
  std::fprintf(out,
               "{\n"
               "  \"spec\": \"%s\",\n"
               "  \"workload\": \"%s\",\n"
               "  \"dataset\": \"%s\",\n"
               "  \"sigma\": %.6g,\n"
               "  \"lsn\": %.6g,\n"
               "  \"scale\": %zu,\n"
               "  \"ops\": %zu,\n"
               "  \"seed\": %llu,\n"
               "  \"mean_ns\": %.6g,\n",
               JsonEscape(ComposeSpec(flags.index, opt)).c_str(),
               JsonEscape(workload.Canonical()).c_str(),
               flags.sigma > 0.0 ? "clustered" : flags.dataset.c_str(),
               flags.sigma, LocalSkewness(keys), opt.scale, opt.ops,
               static_cast<unsigned long long>(opt.seed), result.MeanNs());
  std::fprintf(out,
               "  \"size\": %zu,\n"
               "  \"size_bytes\": %zu,\n"
               "  \"structure\": {\"max_height\": %d, \"avg_height\": %.6g, "
               "\"max_error\": %.6g, \"avg_error\": %.6g, "
               "\"num_nodes\": %zu},\n",
               index->size(), index->SizeBytes(), stats.max_height,
               stats.avg_height, stats.max_error, stats.avg_error,
               stats.num_nodes);
  WriteBuildJson(out, opt.seed);
  WriteHostJson(out);

  std::fprintf(out, "  \"num_units\": %zu,\n", heat.size());
  std::fprintf(out, "  \"hottest_unit\": ");
  if (hot_index < heat.size()) {
    PrintUnitJson(out, heat[hot_index], hot_index);
  } else {
    std::fprintf(out, "null");
  }
  std::fprintf(out, ",\n  \"top_units\": [");
  for (size_t i = 0; i < hottest.size(); ++i) {
    std::fprintf(out, "%s\n    ", i == 0 ? "" : ",");
    PrintUnitJson(out, hottest[i], i);
  }
  std::fprintf(out, "%s],\n", hottest.empty() ? "" : "\n  ");
  std::fprintf(out, "  \"heatmap\": %s,\n", obs::HeatmapJson(heat).c_str());

  // Writer-lock contention map: per-unit writer-lock spin counts
  // accumulated during the replay (all zeros unless the stack ran in
  // multi-writer mode and writers actually collided). Top-K only — the
  // full map is the "heatmap" field's shape with different weights.
  const obs::Heatmap contention =
      obs::TopKHottest(index->WriteContentionSnapshot(), flags.top);
  std::fprintf(out, "  \"write_contention\": %s,\n",
               obs::HeatmapJson(contention).c_str());

  // Disk tier, when the stack has one: pool geometry and hit rate, the
  // delta/tombstone backlog, and the merge count — summed across every
  // tiered layer (per-shard layers under Sharded). Snapshot taken after
  // the replay so it reflects the workload just run.
  TieredStatsBlock tiered;
  if (CollectTieredStats(index.get(), &tiered)) {
    std::fprintf(out,
                 "  \"tiered\": {\"layers\": %zu, \"frames\": %zu, "
                 "\"page_size\": %zu, \"pages\": %llu, "
                 "\"disk_entries\": %llu, \"delta_entries\": %zu, "
                 "\"tombstones\": %zu, \"merges\": %llu,\n"
                 "    \"pool\": {\"hits\": %llu, \"misses\": %llu, "
                 "\"hit_rate\": %.6g, \"evictions\": %llu, "
                 "\"page_reads\": %llu}},\n",
                 tiered.layers, tiered.frames, tiered.page_size,
                 static_cast<unsigned long long>(tiered.pages),
                 static_cast<unsigned long long>(tiered.disk_entries),
                 tiered.delta_entries, tiered.tombstones,
                 static_cast<unsigned long long>(tiered.merges),
                 static_cast<unsigned long long>(tiered.pool.hits),
                 static_cast<unsigned long long>(tiered.pool.misses),
                 tiered.pool.HitRate(),
                 static_cast<unsigned long long>(tiered.pool.evictions),
                 static_cast<unsigned long long>(tiered.pool.page_reads));
  }

  WriteCountersJson(out);
  std::fprintf(out, "}\n");
  if (out != stdout) {
    std::fclose(out);
    std::fprintf(stderr, "wrote %s\n", flags.out.c_str());
  }

  if (flags.prom) {
    const std::string prom = obs::MetricsSampler::RenderProm();
    std::fputs(prom.c_str(), stderr);
  }
  report.Write();
  return 0;
}
