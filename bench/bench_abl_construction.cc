// Ablation: construction policy — what each Chameleon module buys.
//
// Sweeps the three paper ablations (ChaB / ChaDA / ChaDATS) plus the
// TSMDP policy source (analytic cost model vs trained DQN) and the
// workload-aware reward extension, reporting build time, lookup latency,
// memory, and structure for the FACE dataset.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/chameleon_index.h"
#include "src/core/trainer.h"
#include "src/util/timer.h"

using namespace chameleon;
using namespace chameleon::bench;

namespace {

void Report(const char* label, ChameleonIndex* index,
            const std::vector<KeyValue>& data, const std::vector<Key>& keys,
            const Options& opt, JsonReport* report) {
  Timer timer;
  index->BulkLoad(data);
  const double build_ms = timer.ElapsedMillis();
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("read"), keys, opt.seed + 1, opt.ops);
  const double lookup_ns =
      Replay(index, ops, ReplayOptionsFor(opt), report->lat()).MeanNs();
  const IndexStats stats = index->Stats();
  std::printf("%-24s %10.1f %10.1f %8.2f %7d %9.0f %10zu\n", label, build_ms,
              lookup_ns, ToMiB(index->SizeBytes()), stats.max_height,
              stats.max_error, stats.num_nodes);
  report->AddRow()
      .Str("variant", label)
      .Num("build_ms", build_ms)
      .Num("lookup_ns", lookup_ns)
      .Num("size_mib", ToMiB(index->SizeBytes()))
      .Num("max_height", stats.max_height)
      .Num("max_error", stats.max_error)
      .Num("num_nodes", static_cast<double>(stats.num_nodes));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::Parse(argc, argv, {}, {.spec = false});
  JsonReport report("abl_construction", opt);
  std::printf("=== Ablation: construction policy ===\n");
  std::printf("%zu FACE keys, %zu lookups\n\n", opt.scale, opt.ops);

  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kFace, opt.scale, opt.seed);
  const std::vector<KeyValue> data = ToKeyValues(keys);

  std::printf("%-24s %10s %10s %8s %7s %9s %10s\n", "variant", "build-ms",
              "lookup-ns", "MiB", "height", "MaxError", "#nodes");
  PrintRule(84);

  {
    ChameleonConfig c;
    c.mode = ChameleonMode::kEbhOnly;
    ChameleonIndex index(c);
    Report("ChaB (greedy)", &index, data, keys, opt, &report);
  }
  {
    ChameleonConfig c;
    c.mode = ChameleonMode::kDare;
    ChameleonIndex index(c);
    Report("ChaDA (DARE)", &index, data, keys, opt, &report);
  }
  {
    ChameleonConfig c;
    c.mode = ChameleonMode::kFull;
    ChameleonIndex index(c);
    Report("ChaDATS (cost model)", &index, data, keys, opt, &report);
  }
  {
    // TSMDP driven by a DQN trained on-the-fly (Algorithm 2, small
    // budget) instead of the analytic cost model.
    ChameleonConfig c;
    c.mode = ChameleonMode::kFull;
    c.tsmdp.source = PolicySource::kDqn;
    ChameleonIndex index(c);
    TrainerConfig tc;
    tc.er_decay = 0.4;
    tc.epsilon = 0.1;
    std::vector<std::vector<Key>> corpus = {
        std::vector<Key>(keys.begin(),
                         keys.begin() + std::min<size_t>(keys.size(), 20'000))};
    ChameleonTrainer trainer(&index.dare(), &index.tsmdp(), tc);
    trainer.Train(corpus);
    Report("ChaDATS (trained DQN)", &index, data, keys, opt, &report);
  }
  {
    // Workload-aware reward: traffic concentrated on 10% of the keys.
    ChameleonConfig c;
    c.mode = ChameleonMode::kFull;
    ChameleonIndex index(c);
    std::vector<Key> hot(keys.begin(), keys.begin() + keys.size() / 10);
    index.SetQuerySample(hot);
    Report("ChaDATS (workload-aware)", &index, data, keys, opt, &report);
  }
  report.Write();
  return 0;
}
