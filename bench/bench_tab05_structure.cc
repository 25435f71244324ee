// Reproduces Table V: analysis of index structures after bulk loading —
// MaxHeight, MaxError, AvgHeight, AvgError, #Nodes for DILI, ALEX, and
// the Chameleon ablations ChaB / ChaDA / ChaDATS.
//
// Expected shape (paper Sec. VI-B4): DILI's MaxHeight explodes on skewed
// data (deep downward splits) with zero model error; ALEX's MaxError
// explodes on skewed data (linear leaves cannot flatten local skew);
// the Cha* variants stay at height ~h with small bounded errors, and
// adding DARE (ChaDA) then TSMDP (ChaDATS) reduces #Nodes / errors
// relative to the greedy ChaB.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"

using namespace chameleon;
using namespace chameleon::bench;

int main(int argc, char** argv) {
  const Options opt = Options::Parse(argc, argv);
  JsonReport report("tab05_structure", opt);
  std::printf("=== Table V: analysis of index structures ===\n");
  std::printf("%zu keys per dataset (paper: 200M)\n\n", opt.scale);

  const char* names[] = {"DILI", "ALEX", "ChaB", "ChaDA", "Chameleon"};
  std::printf("%-8s %-10s %9s %9s %9s %9s %10s\n", "dataset", "index",
              "MaxHeight", "MaxError", "AvgHeight", "AvgError", "#Nodes");
  PrintRule(70);
  for (DatasetKind kind : kAllDatasets) {
    const std::vector<Key> keys = GenerateDataset(kind, opt.scale, opt.seed);
    const std::vector<KeyValue> data = ToKeyValues(keys);
    for (const char* name : names) {
      std::unique_ptr<KvIndex> index = MakeBenchIndex(name, opt);
      index->BulkLoad(data);
      const IndexStats s = index->Stats();
      // This table is structure-only; with --json a lookup replay runs
      // so the blob carries a real latency distribution too.
      if (report.enabled()) {
        Replay(index.get(),
               MaterializeWorkload(ParseWorkloadOrDie("read"), keys,
                                   opt.seed + 1, opt.ops),
               ReplayOptionsFor(opt), report.lat());
      }
      report.AddRow()
          .Str("dataset", DatasetName(kind))
          .Str("index", name)
          .Num("max_height", s.max_height)
          .Num("max_error", s.max_error)
          .Num("avg_height", s.avg_height)
          .Num("avg_error", s.avg_error)
          .Num("num_nodes", static_cast<double>(s.num_nodes));
      std::printf("%-8s %-10s %9d %9.0f %9.2f %9.2f %10zu\n",
                  std::string(DatasetName(kind)).c_str(),
                  name[0] == 'C' && name[1] == 'h' && name[3] == 'm'
                      ? "ChaDATS"
                      : name,
                  s.max_height, s.max_error, s.avg_height, s.avg_error,
                  s.num_nodes);
      std::fflush(stdout);
    }
    PrintRule(70);
  }
  report.Write();
  return 0;
}
