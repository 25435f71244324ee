// Scenario: an "index advisor" that measures the local skewness of a
// dataset and compares candidate index structures before deployment —
// the kind of decision the paper's Table I/Fig. 8 inform.
//
// Reads a SOSD-format binary key file if given, otherwise generates the
// four paper datasets; builds every index; reports lookup latency,
// memory, and structure, and recommends per dataset.
//
//   ./build/examples/index_advisor [sosd_file.bin]

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/api/index_factory.h"
#include "src/data/dataset.h"
#include "src/data/skew.h"
#include "src/util/io.h"
#include "src/util/timer.h"
#include "src/workload/workload_spec.h"

using namespace chameleon;

namespace {

void Advise(const std::string& label, const std::vector<Key>& keys) {
  std::printf("\n=== %s: %zu keys, lsn = %.3f ===\n", label.c_str(),
              keys.size(), LocalSkewness(keys));
  std::printf("%-10s %10s %10s %10s %8s\n", "index", "lookup-ns", "MiB",
              "height", "nodes");

  std::string best;
  double best_score = 1e300;
  for (const std::string& name : AllIndexNames()) {
    std::unique_ptr<KvIndex> index = MakeIndex(name);
    index->BulkLoad(ToKeyValues(keys));
    const std::vector<Operation> ops =
        MaterializeWorkload(ParseWorkloadOrDie("read"), keys, 5, 50'000);
    Timer timer;
    for (const Operation& op : ops) {
      Value v;
      index->Lookup(op.key, &v);
    }
    const double ns = timer.ElapsedNanos() / static_cast<double>(ops.size());
    const double mib = index->SizeBytes() / 1024.0 / 1024.0;
    const IndexStats stats = index->Stats();
    std::printf("%-10s %10.1f %10.2f %10d %8zu\n", name.c_str(), ns, mib,
                stats.max_height, stats.num_nodes);
    // Simple advisor score: latency weighted by a memory penalty.
    const double score = ns * (1.0 + mib / 50.0);
    if (score < best_score) {
      best_score = score;
      best = name;
    }
  }
  std::printf("advisor pick for %s: %s\n", label.c_str(), best.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::vector<Key> keys;
    if (!ReadSosdFile(argv[1], &keys)) {
      std::fprintf(stderr, "cannot read SOSD file %s\n", argv[1]);
      return 1;
    }
    Advise(argv[1], keys);
    return 0;
  }
  for (DatasetKind kind : kAllDatasets) {
    Advise(std::string(DatasetName(kind)),
           GenerateDataset(kind, 100'000, 11));
  }
  return 0;
}
