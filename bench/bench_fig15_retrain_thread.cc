// Reproduces Fig. 15: latency with vs without the background retraining
// thread under a continuous insert-heavy workload.
//
// The retrainer runs every 50 ms here (paper: every 10 s at 200M-key
// scale); it continuously rebuilds drifted h-level subtrees under
// Interval Locks, off the query path.
//
// Expected shape: the paper reports ~100 ns lower average *query*
// latency with the retraining thread. In this implementation, hit
// lookups probe O(1) slots even in drifted leaves, so the visible
// benefit concentrates on the *write* path (an insert's duplicate check
// scans the full +-cd window, and cd is exactly what retraining
// restores) and on keeping worst-case probes bounded; reads pay a small
// Query-Lock overhead while the retrainer is live. See EXPERIMENTS.md
// for the measured numbers and discussion.
//
// Inserts always replay on one writer thread; --rthreads fans out only
// the read segments.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/chameleon_index.h"

using namespace chameleon;
using namespace chameleon::bench;

namespace {

void RunTrace(ChameleonIndex* index, const std::vector<Key>& keys,
              size_t segments, size_t inserts_per_seg, size_t reads_per_seg,
              uint64_t seed, const char* label, const Options& opt,
              JsonReport* report) {
  // One generator across the segments: each continues the live set the
  // previous one left, so the reads hit the keys inserted so far.
  WorkloadGenerator gen(keys, seed);
  const WorkloadDesc insert_desc = ParseWorkloadOrDie("insdel(u=1)");
  const WorkloadDesc read_desc = ParseWorkloadOrDie("read");
  obs::LatencyHistogram* hist = report->lat();
  ReplayOptions writer = ReplayOptionsFor(opt);
  writer.threads = 1;
  std::vector<double> read_ns, write_ns;
  for (size_t s = 0; s < segments; ++s) {
    // Writes stay on one driver thread (the paper's single workload
    // writer, so the index never enters multi-writer mode); the read
    // segment fans out over --rthreads reader threads while the
    // retrainer keeps rebuilding drifted units — the fig15 scenario
    // with R concurrent foreground readers.
    const std::vector<Operation> inserts =
        Drain(*MakeOpSource(insert_desc, gen, keys), inserts_per_seg);
    write_ns.push_back(Replay(index, inserts, writer, hist).MeanNs());

    const std::vector<Operation> reads =
        Drain(*MakeOpSource(read_desc, gen, keys), reads_per_seg);
    read_ns.push_back(
        Replay(index, reads, ReplayOptionsFor(opt), hist).MeanNs());
    report->AddRow()
        .Str("config", label)
        .Num("segment", static_cast<double>(s))
        .Num("write_ns", write_ns.back())
        .Num("read_ns", read_ns.back());
  }
  double read_mean = 0.0, write_mean = 0.0;
  std::printf("%-22s reads:", label);
  for (double ns : read_ns) {
    std::printf(" %5.0f", ns);
    read_mean += ns;
  }
  std::printf("  writes:");
  for (double ns : write_ns) {
    std::printf(" %5.0f", ns);
    write_mean += ns;
  }
  std::printf("\n%-22s mean read %5.0f ns, mean write %5.0f ns "
              "(%zu background retrains)\n",
              "", read_mean / segments, write_mean / segments,
              index->total_retrains());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::Parse(argc, argv, {}, {.spec = false});
  JsonReport report("fig15_retrain_thread", opt);
  obs::TraceJournal::Get().SetEnabled(true);
  const size_t init = opt.scale / 5;
  const size_t segments = 8;
  const size_t inserts_per_seg = opt.scale / 10;
  const size_t reads_per_seg = opt.ops / 4;

  std::printf("=== Fig. 15: latency with/without retraining thread ===\n");
  std::printf(
      "init %zu FACE keys; %zu segments x (%zu inserts + %zu reads), "
      "%zu reader thread(s)\n\n",
      init, segments, inserts_per_seg, reads_per_seg, opt.rthreads);

  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kFace, init, opt.seed);

  ChameleonConfig config;
  config.retrain_threshold_pct = 40;

  {
    ChameleonIndex index(config);
    index.BulkLoad(ToKeyValues(keys));
    RunTrace(&index, keys, segments, inserts_per_seg, reads_per_seg,
             opt.seed + 1, "without retrainer:", opt, &report);
  }
  {
    ChameleonIndex index(config);
    index.BulkLoad(ToKeyValues(keys));
    index.StartRetrainer(std::chrono::milliseconds(50));
    RunTrace(&index, keys, segments, inserts_per_seg, reads_per_seg,
             opt.seed + 1, "with retrainer:", opt, &report);
    index.StopRetrainer();
  }
  report.Write();
  return 0;
}
