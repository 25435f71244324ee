// Scenario: an ingest-heavy key-value workload (the paper's motivating
// setting — frequent updates shifting the local key distribution) with
// Chameleon's non-blocking background retraining enabled.
//
// A social-media-style ID stream arrives in bursts (new IDs cluster near
// recent ones), continuously increasing local skew. The background
// retraining thread rebuilds hot h-level subtrees under Interval Locks
// while the foreground keeps serving queries.
//
//   ./build/examples/streaming_updates

#include <chrono>
#include <cstdio>
#include <vector>

#include "src/core/chameleon_index.h"
#include "src/data/dataset.h"
#include "src/data/skew.h"
#include "src/util/timer.h"
#include "src/workload/workload_spec.h"

using namespace chameleon;

int main() {
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kOsmc, 100'000, /*seed=*/3);

  ChameleonConfig config;
  config.retrain_threshold_pct = 25;  // rebuild units at +25% update volume
  ChameleonIndex index(config);
  index.BulkLoad(ToKeyValues(keys));
  std::printf("loaded %zu keys into %zu units\n", index.size(),
              index.num_units());

  // Start the retraining thread (the paper retrains every 10 s at 200M
  // scale; we scale the period down with the data).
  index.StartRetrainer(std::chrono::milliseconds(20));

  // One generator for the whole run: every burst and query batch
  // continues from the live keys the previous one left behind.
  WorkloadGenerator gen(keys, /*seed=*/7);
  const WorkloadDesc inserts = ParseWorkloadOrDie("insdel(u=1)");
  const WorkloadDesc queries = ParseWorkloadOrDie("read");
  for (int round = 1; round <= 6; ++round) {
    // Burst of inserts (IDs clustering near existing hot regions).
    for (const Operation& op :
         Drain(*MakeOpSource(inserts, gen, keys), 40'000)) {
      index.Insert(op.key, op.value);
    }
    // Serve queries while the retrainer works in the background.
    const std::vector<Operation> reads =
        Drain(*MakeOpSource(queries, gen, keys), 20'000);
    Timer timer;
    size_t hits = 0;
    for (const Operation& op : reads) {
      Value v;
      hits += index.Lookup(op.key, &v);
    }
    const double ns = timer.ElapsedNanos() / static_cast<double>(reads.size());
    std::printf("round %d: size=%7zu  read latency %6.0f ns  "
                "(%zu/%zu hits, %zu background retrains so far)\n",
                round, index.size(), ns, hits, reads.size(),
                index.total_retrains());
  }
  index.StopRetrainer();

  std::printf("final structure: %zu units, %zu total retrains, "
              "%zu displacement shifts\n",
              index.num_units(), index.total_retrains(),
              index.total_shifts());
  return 0;
}
