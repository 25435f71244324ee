// Reproduces Fig. 10: index construction time on the two real(-like)
// datasets (OSMC, FACE).
//
// Expected shape: RL-driven construction (Chameleon, DIC) is slower than
// the greedy indexes; DIC is the slowest (it invokes and trains an RL
// agent per node), DILI is slow (two-phase BU+TD); construction time
// grows with dataset size for everyone.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/util/timer.h"

using namespace chameleon;
using namespace chameleon::bench;

int main(int argc, char** argv) {
  // --index=NAME restricts the sweep to one leaf (used by the
  // --threads speedup runs, where building all 11 indexes at large scale
  // would dwarf the measurement of interest).
  std::string only_index;
  const Options opt =
      Options::Parse(argc, argv, {StrFlag("--index=", &only_index)});
  const std::vector<std::string> names =
      SweptIndexes(only_index, AllIndexNames(), opt);
  JsonReport report("fig10_construction", opt);
  std::printf("=== Fig. 10: index construction time ===\n");
  std::printf("%zu keys per dataset, %zu build threads\n\n", opt.scale,
              GlobalPool().num_threads());

  std::printf("%-10s %14s %14s %14s\n", "index", "OSMC(ms)", "FACE(ms)",
              "LOGN(ms)");
  PrintRule(60);
  for (const std::string& name : names) {
    std::printf("%-10s", name.c_str());
    for (DatasetKind kind :
         {DatasetKind::kOsmc, DatasetKind::kFace, DatasetKind::kLogn}) {
      const std::vector<KeyValue> data =
          ToKeyValues(GenerateDataset(kind, opt.scale, opt.seed));
      std::unique_ptr<KvIndex> index = MakeBenchIndex(name, opt);
      Timer timer;
      index->BulkLoad(data);
      const int64_t build_ns = timer.ElapsedNanos();
      std::printf(" %14.1f", static_cast<double>(build_ns) / 1e6);
      // The "latency" distribution of this bench is whole-build times.
      if (obs::LatencyHistogram* h = report.lat()) h->Record(build_ns);
      report.AddRow()
          .Str("index", name)
          .Str("dataset", DatasetName(kind))
          .Num("build_ms", static_cast<double>(build_ns) / 1e6);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("\nExpected shape: DIC slowest (per-node RL), Chameleon/DILI "
              "slower than greedy indexes, RS/PGM fastest\n");
  report.Write();
  return 0;
}
