// Empirical companion to Table III (time-complexity analysis): Google
// Benchmark microbenchmarks of point lookup and insert per index at a
// fixed cardinality, validating the relative orderings the paper's
// complexity table implies (Chameleon lookups ~O(H_C + 1), its updates
// ~O(m*tau); B+Tree lookups pay log factors; LIPP/DILI updates pay
// rebuild factors).

#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/api/index_factory.h"
#include "src/data/dataset.h"
#include "src/util/random.h"
#include "src/workload/workload_spec.h"

namespace chameleon {
namespace {

constexpr size_t kN = 200'000;

// The registered benchmark lambdas only capture the index name; the
// harness options (--spec adapter stack) are parsed in main before
// RunSpecifiedBenchmarks and published here for the fixtures.
bench::Options g_opt;

struct Fixture {
  std::vector<Key> keys;
  std::unique_ptr<KvIndex> index;

  explicit Fixture(const std::string& name) {
    keys = GenerateDataset(DatasetKind::kLogn, kN, 3);
    index = bench::MakeBenchIndex(name, g_opt);
    index->BulkLoad(ToKeyValues(keys));
  }
};

void BM_Lookup(benchmark::State& state, const std::string& name) {
  static Fixture* fixture = nullptr;
  static std::string cached_name;
  if (fixture == nullptr || cached_name != name) {
    delete fixture;
    fixture = new Fixture(name);
    cached_name = name;
  }
  Rng rng(7);
  for (auto _ : state) {
    const Key k = fixture->keys[rng.NextBounded(fixture->keys.size())];
    Value v;
    benchmark::DoNotOptimize(fixture->index->Lookup(k, &v));
  }
}

void BM_Insert(benchmark::State& state, const std::string& name) {
  Fixture fixture(name);
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("insdel(u=1)"), fixture.keys, 11, 1 << 20);
  size_t i = 0;
  for (auto _ : state) {
    const Operation& op = ops[i++ % ops.size()];
    benchmark::DoNotOptimize(fixture.index->Insert(op.key, op.value));
  }
}

int RegisterAll() {
  for (const std::string& name : AllIndexNames()) {
    benchmark::RegisterBenchmark(("Tab03/Lookup/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_Lookup(s, name);
                                 });
  }
  for (const std::string& name : UpdatableIndexNames()) {
    benchmark::RegisterBenchmark(("Tab03/Insert/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_Insert(s, name);
                                 });
  }
  return 0;
}

const int kRegistered = RegisterAll();

}  // namespace
}  // namespace chameleon

// Custom main instead of BENCHMARK_MAIN(): the harness flags
// (--json/--scale/...) must be stripped before benchmark::Initialize,
// which aborts on arguments it does not recognize.
int main(int argc, char** argv) {
  using namespace chameleon;
  using namespace chameleon::bench;
  const Options opt = Options::ParseStrip(&argc, argv);
  g_opt = opt;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Google Benchmark keeps its per-iteration timings internal, so the
  // --json companion replays lookups and inserts through the shared
  // histogram path for the headline indexes.
  if (!opt.json_path.empty()) {
    JsonReport report("tab03_complexity", opt);
    const std::vector<Key> keys =
        GenerateDataset(DatasetKind::kLogn, opt.scale, opt.seed);
    for (const std::string& name : UpdatableIndexNames()) {
      std::unique_ptr<KvIndex> index = MakeBenchIndex(name, opt);
      index->BulkLoad(ToKeyValues(keys));
      // The inserts continue from the reads' generator state.
      WorkloadGenerator gen(keys, opt.seed + 1);
      const std::vector<Operation> reads = Drain(
          *MakeOpSource(ParseWorkloadOrDie("read"), gen, keys), opt.ops);
      const double lookup_ns =
          Replay(index.get(), reads, ReplayOptionsFor(opt), report.lat())
              .MeanNs();
      const std::vector<Operation> inserts = Drain(
          *MakeOpSource(ParseWorkloadOrDie("insdel(u=1)"), gen, keys),
          opt.ops / 4);
      const double insert_ns =
          Replay(index.get(), inserts, ReplayOptionsFor(opt), report.lat())
              .MeanNs();
      report.AddRow()
          .Str("index", name)
          .Num("lookup_ns", lookup_ns)
          .Num("insert_ns", insert_ns);
    }
    report.Write();
  }
  return 0;
}
