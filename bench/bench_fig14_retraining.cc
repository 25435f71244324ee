// Reproduces Fig. 14: average insertion time and the average
// retraining/maintenance time within it, after bulk loading 10% and
// inserting the rest (paper: bulk 20M, insert 180M).
//
// Maintenance is measured uniformly across indexes as the latency mass
// of maintenance spikes: the time spent in inserts that exceed 10x the
// median insert (expansions, splits, merges, model retrains), which is
// exactly the "retraining share" the paper plots for each index.
//
// Expected shape: Chameleon has both the lowest insertion time and the
// lowest retraining share (unordered EBH leaves avoid sort-heavy
// rebuilds; the background thread does the rest off the insert path).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/chameleon_index.h"
#include "src/util/timer.h"

using namespace chameleon;
using namespace chameleon::bench;

int main(int argc, char** argv) {
  const Options opt = Options::Parse(argc, argv);
  JsonReport report("fig14_retraining", opt);
  // This is the maintenance-focused bench, so it records the retrain/
  // split/rebuild event stream (dumped via --trace=PATH, or next to
  // --json=PATH as <json>.trace.jsonl).
  obs::TraceJournal::Get().SetEnabled(true);
  const size_t bulk = opt.scale / 10;
  const size_t inserts = std::min(opt.ops * 2, opt.scale);

  std::printf("=== Fig. 14: insertion time & retraining share ===\n");
  std::printf("bulk %zu keys, insert %zu (per dataset)\n\n", bulk, inserts);

  std::printf("%-10s", "index");
  for (DatasetKind kind : kAllDatasets) {
    std::printf("  %6s-ns %6s-rt%%", std::string(DatasetName(kind)).c_str(),
                std::string(DatasetName(kind)).c_str());
  }
  std::printf("\n");
  PrintRule(90);

  for (const std::string& name : UpdatableIndexNames()) {
    std::printf("%-10s", name.c_str());
    for (DatasetKind kind : kAllDatasets) {
      const std::vector<Key> keys = GenerateDataset(kind, bulk, opt.seed);
      std::unique_ptr<KvIndex> index = MakeBenchIndex(name, opt);
      index->BulkLoad(ToKeyValues(keys));
      const std::vector<Operation> ops = MaterializeWorkload(
          ParseWorkloadOrDie("insdel(u=1)"), keys, opt.seed + 9, inserts);

      std::vector<double> lat;
      lat.reserve(ops.size());
      for (const Operation& op : ops) {
        Timer t;
        index->Insert(op.key, op.value);
        const int64_t ns = t.ElapsedNanos();
        if (obs::LatencyHistogram* h = report.lat()) h->Record(ns);
        lat.push_back(static_cast<double>(ns));
      }
      std::vector<double> sorted = lat;
      std::sort(sorted.begin(), sorted.end());
      const double median = sorted[sorted.size() / 2];
      double total = 0.0, maintenance = 0.0;
      for (double ns : lat) {
        total += ns;
        if (ns > 10.0 * median) maintenance += ns;
      }
      std::printf("  %9.0f %8.1f", total / lat.size(),
                  100.0 * maintenance / total);
      report.AddRow()
          .Str("index", name)
          .Str("dataset", DatasetName(kind))
          .Num("insert_ns", total / lat.size())
          .Num("retrain_share_pct", 100.0 * maintenance / total);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  // Explicit retraining pass so the dumped trace always contains the
  // event kinds this bench is about (retrain_pass, unit_rebuilt, ...)
  // even when the insert workload above never crossed a threshold.
  {
    const std::vector<Key> keys =
        GenerateDataset(DatasetKind::kFace, bulk, opt.seed);
    ChameleonIndex index;
    index.BulkLoad(ToKeyValues(keys));
    for (const Operation& op : MaterializeWorkload(
             ParseWorkloadOrDie("insdel(u=1)"), keys, opt.seed + 17, inserts)) {
      index.Insert(op.key, op.value);
    }
    const size_t rebuilt = index.RetrainOnce();
    std::printf("\nsynchronous RetrainOnce() after %zu inserts: %zu units "
                "rebuilt, %zu trace events journaled\n",
                inserts, rebuilt, obs::TraceJournal::Get().size());
  }

  report.Write();
  return 0;
}
