// The one runner behind the sweep benches: bench_fig08_readonly,
// bench_fig09_skew_sweep, bench_fig11_readwrite, bench_fig12_insdel,
// bench_fig13_batched, bench_tab03_complexity, bench_tab05_structure,
// bench_ext_range and bench_ycsb are each this file compiled with
// CHAMELEON_SWEEP naming its kSweeps entry (bench/CMakeLists.txt). An
// entry holds what differs between figures — key source and initial
// size, index list, workload specs, sweep points, stream seed offset,
// row columns — and one loop does the rest:
//
//   for each dataset: build every point's keys and op stream once
//     for each index: build the stack (fresh per point, or one per row
//                     for phases and scans), skip write-bearing rows on
//                     stacks without concurrent-write support, bulk-load,
//                     replay, print the cells and emit one JSON row each
//
// Adding a figure is one kSweeps entry plus its name in the
// sweep list in bench/CMakeLists.txt.
//
// What each figure reproduces, and its expected shape:
//  - fig08: read-only latency and index size at 1/4..4/4 of --scale on
//    the four datasets. Chameleon is the most stable across skew levels
//    and fastest by a multiple on FACE (highest lsn); on uniform UDEN it
//    is merely competitive with RS/ALEX.
//  - fig09: latency relative to B+Tree as local skew grows (uniform
//    backbone plus normal clusters of shrinking sigma = higher lsn).
//    Chameleon's ratio stays flat while the other learned indexes climb.
//  - fig11: throughput vs write ratio on scale/5 initial keys; RS and
//    DIC are static and excluded, as in the paper. Chameleon leads on
//    FACE/LOGN and does not degrade as the write share grows.
//  - fig12: throughput vs insert share of an insert/delete stream.
//    Slight gain up to ~0.25 (deletes open gaps that absorb inserts),
//    then a slow decline; Chameleon stays on top and degrades least.
//  - fig13: latency of Fig. 13's phases (insert 1/4 of a key pool,
//    query, x4; then delete 1/4, query, x4) on one stack per index.
//    Chameleon stays flat across phases; others drift as updates land.
//  - tab03: mean lookup and insert cost per index on LOGN, the empirical
//    side of Table III's complexity analysis. The paper expects
//    Chameleon's ~O(H_C + 1) lookups near the learned leaders, B+Tree to
//    pay its log factors, and ALEX/PGM/LIPP inserts to pay their shift,
//    merge and rebuild factors against Chameleon's O(m*tau).
//  - tab05: Table V's structure measures (MaxHeight, MaxError,
//    AvgHeight, AvgError, #Nodes; IndexStatsTally defines them) for
//    DILI, ALEX and the Chameleon ablations ChaB, ChaDA and Chameleon
//    (the paper's ChaDATS), read after the replay; the default read
//    stream leaves the bulk-loaded structure as it is. DILI's MaxHeight
//    grows on skewed data with zero model error; ALEX's MaxError grows
//    on skewed data; the Cha* variants stay near height h with small
//    errors, and DARE then TSMDP cut #Nodes and errors against ChaB.
//  - ext_range (not a paper figure): range-scan cost per scan width; it
//    shows what Chameleon's unordered EBH leaves cost against natively
//    ordered structures.
//  - ycsb: the YCSB core mixes A-F (or any --workload) in closed-loop
//    replay, or with --rate=R in open-loop mode, whose latency is
//    coordinated-omission safe (src/workload/driver.h, RunOpenLoop).
//    Open-loop runs use one dispatcher by design: latency percentiles
//    are the point, not peak throughput.
//
// A blob reproduces from itself: it echoes the stack spec, seed and
// scale/ops, and the canonical workload (per row when a sweep runs
// several).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/data/skew.h"
#include "src/util/random.h"

#ifndef CHAMELEON_SWEEP
#error "CHAMELEON_SWEEP must name a kSweeps entry (see bench/CMakeLists.txt)"
#endif

using namespace chameleon;
using namespace chameleon::bench;

namespace {

/// What a sweep's points vary.
enum class Axis {
  kWorkloads,    // one point per workload spec (fig11, fig12, tab03, ycsb)
  kCardinality,  // the workload on x/4 of the initial keys (fig08)
  kSkew,         // the workload on clustered keys of sigma x (fig09)
  kPhases,       // the phases of one batched workload (fig13)
  kScanWidths,   // range scans of exactly x keys (ext_range)
};

/// A row field. The text fields come first (see IsText).
enum class Field {
  kDataset,
  kIndex,
  kWorkload,     // canonical spec of the point's stream
  kPhase,        // batched phase name
  kMode,         // "closed-loop" (open-loop rows have their own schema)
  kKeys,         // keys bulk-loaded
  kX,            // the point's swept value (sigma, width)
  kWriteRatio,   // mixed(w=...) points only
  kInsertRatio,  // insdel(u=...) points only
  kThreads,      // driver threads the point replayed on
  kOps,
  kMisses,
  kMeanNs,       // mean ns per op
  kMeanMops,     // 1e3 / mean ns per op
  kWallMops,     // ops over replay wall time (aggregate across threads)
  kSizeMib,      // index size after the replay
  kRefRatio,     // mean ns over the reference index's on the same stream
  kMaxHeight,    // Table V structure measures, read after the replay
  kMaxError,
  kAvgHeight,
  kAvgError,
  kNumNodes,
};

bool IsText(Field f) { return f <= Field::kMode; }

struct Column {
  const char* key;     // JSON row key
  Field field;
  int precision = -1;  // decimals in the printed table; -1 = JSON only
};

struct Sweep {
  const char* name;  // JSON "bench"; the binary is bench_<name>
  const char* title;
  Axis axis;
  std::span<const DatasetKind> datasets = {};  // empty: one unnamed key set
  std::vector<const char*> workloads = {};     // specs; --workload replaces
  std::vector<double> xs = {};                 // swept values (not kWorkloads)
  std::vector<Column> columns = {};
  std::vector<std::string> indexes = AllIndexNames();  // rows, in order
  size_t init_div = 1;              // initial keys = --scale / init_div
  uint64_t seed_offset = 1;         // stream seed = --seed + seed_offset
  bool seed_adds_x = false;         //   (+ the point's x)
  bool table_per_point = false;     // one table per point, indexes as rows
  bool scenario_flags = false;      // takes --mixes, --index and --rate
  const char* reference = nullptr;  // kRefRatio's baseline index
};

constexpr DatasetKind kOsmc[] = {DatasetKind::kOsmc};
constexpr DatasetKind kLogn[] = {DatasetKind::kLogn};

const Sweep kSweeps[] = {
    {.name = "fig08_readonly",
     .title = "Fig. 8: read-only query latency (ns) & index size (MiB)",
     .axis = Axis::kCardinality,
     .datasets = kAllDatasets,
     .workloads = {"read"},
     .xs = {1, 2, 3, 4},
     .columns = {{"dataset", Field::kDataset},
                 {"index", Field::kIndex},
                 {"keys", Field::kKeys},
                 {"lookup_ns", Field::kMeanNs, 1},
                 {"size_mib", Field::kSizeMib, 2}},
     .seed_offset = 0,
     .seed_adds_x = true},
    {.name = "fig09_skew_sweep",
     .title = "Fig. 9: latency ratio (vs B+Tree) vs local skewness",
     .axis = Axis::kSkew,
     .workloads = {"read"},
     .xs = {1e-2, 1e-4, 1e-6, 1e-8},
     .columns = {{"index", Field::kIndex},
                 {"sigma", Field::kX},
                 {"lookup_ns", Field::kMeanNs},
                 {"ratio_vs_btree", Field::kRefRatio, 3}},
     .reference = "B+Tree"},
    {.name = "fig11_readwrite",
     .title = "Fig. 11: throughput (Mops/s) vs read-write ratio",
     .axis = Axis::kWorkloads,
     .datasets = kAllDatasets,
     .workloads = {"mixed(w=0)", "mixed(w=0.2)", "mixed(w=0.4)",
                   "mixed(w=0.6)", "mixed(w=0.8)", "mixed(w=1)"},
     .columns = {{"dataset", Field::kDataset},
                 {"index", Field::kIndex},
                 {"workload", Field::kWorkload},
                 {"write_ratio", Field::kWriteRatio},
                 {"threads", Field::kThreads},
                 {"throughput_mops", Field::kMeanMops, 3}},
     .indexes = UpdatableIndexNames(),
     .init_div = 5},
    {.name = "fig12_insdel",
     .title = "Fig. 12: throughput (Mops/s) vs insert-delete ratio",
     .axis = Axis::kWorkloads,
     .datasets = kAllDatasets,
     .workloads = {"insdel(u=0)", "insdel(u=0.25)", "insdel(u=0.5)",
                   "insdel(u=0.75)", "insdel(u=1)"},
     .columns = {{"dataset", Field::kDataset},
                 {"index", Field::kIndex},
                 {"workload", Field::kWorkload},
                 {"insert_ratio", Field::kInsertRatio},
                 {"throughput_mops", Field::kMeanMops, 3}},
     .indexes = UpdatableIndexNames(),
     .init_div = 5},
    {.name = "fig13_batched",
     .title = "Fig. 13: batched-workload latency (ns/op) per phase",
     .axis = Axis::kPhases,
     .datasets = kLogn,
     .workloads = {"batched"},
     .columns = {{"index", Field::kIndex},
                 {"phase", Field::kPhase},
                 {"mean_ns", Field::kMeanNs, 0}},
     .indexes = UpdatableIndexNames(),
     .init_div = 5,
     .seed_offset = 3},
    {.name = "tab03_complexity",
     .title = "Table III: mean lookup and insert cost (ns/op)",
     .axis = Axis::kWorkloads,
     .datasets = kLogn,
     .workloads = {"read", "insdel(u=1)"},
     .columns = {{"index", Field::kIndex},
                 {"workload", Field::kWorkload},
                 {"mean_ns", Field::kMeanNs, 1}}},
    {.name = "tab05_structure",
     .title = "Table V: analysis of index structures",
     .axis = Axis::kWorkloads,
     .datasets = kAllDatasets,
     .workloads = {"read"},
     .columns = {{"dataset", Field::kDataset},
                 {"index", Field::kIndex},
                 {"max_height", Field::kMaxHeight, 0},
                 {"max_error", Field::kMaxError, 0},
                 {"avg_height", Field::kAvgHeight, 2},
                 {"avg_error", Field::kAvgError, 2},
                 {"num_nodes", Field::kNumNodes, 0}},
     .indexes = {"DILI", "ALEX", "ChaB", "ChaDA", "Chameleon"}},
    {.name = "ext_range",
     .title = "Extension: range-scan latency (ns/scan) per scan width",
     .axis = Axis::kScanWidths,
     .datasets = kOsmc,
     .xs = {10, 100, 1000},
     .columns = {{"index", Field::kIndex},
                 {"width", Field::kX},
                 {"scan_ns", Field::kMeanNs, 0}},
     .seed_offset = 0,
     .seed_adds_x = true},
    {.name = "ycsb",
     .title = "YCSB core mixes: mean latency (ns) and throughput (Mops/s)",
     .axis = Axis::kWorkloads,
     .datasets = kOsmc,
     .workloads = {"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e",
                   "ycsb-f"},
     .columns = {{"index", Field::kIndex},
                 {"workload", Field::kWorkload},
                 {"mode", Field::kMode},
                 {"ops", Field::kOps},
                 {"misses", Field::kMisses},
                 {"mean_ns", Field::kMeanNs, 1},
                 {"throughput_mops", Field::kWallMops, 3}},
     .indexes = UpdatableIndexNames(),
     .table_per_point = true,
     .scenario_flags = true},
};

/// Flags only bench_ycsb takes (Sweep::scenario_flags).
struct ScenarioFlags {
  std::string mixes;  // "a,c,e": run ycsb-<m> per letter
  std::string index;  // sweep only this leaf
  double rate = 0.0;  // > 0: open-loop at this many ops/s
};

/// One measured point of a table row: the keys it loads, the stream it
/// replays, and what labels it in the table and the JSON row.
struct Point {
  std::string label;
  double x = 0.0;
  WorkloadDesc desc;
  std::shared_ptr<const std::vector<KeyValue>> data;
  std::vector<Operation> ops;
  bool writes = false;
  double ref_ns = 0.0;
};

/// What a row cell knows when it emits its fields.
struct Cell {
  const std::string& dataset;
  const std::string& index;
  const Point& point;
  const KvIndex& stack;
  const ReplayResult& result;
  size_t threads;
};

std::string Text(Field field, const Cell& c) {
  switch (field) {
    case Field::kDataset: return c.dataset;
    case Field::kIndex: return c.index;
    case Field::kWorkload: return c.point.desc.Canonical();
    case Field::kPhase: return c.point.label;
    case Field::kMode: return "closed-loop";
    default: return "";
  }
}

/// A numeric field's value; NaN when it does not apply to the point.
double Value(Field field, const Cell& c) {
  const double mean = c.result.MeanNs();
  switch (field) {
    case Field::kKeys: return static_cast<double>(c.point.data->size());
    case Field::kX: return c.point.x;
    case Field::kWriteRatio:
      return c.point.desc.family == WorkloadDesc::Family::kMixed
                 ? c.point.desc.write_ratio
                 : NAN;
    case Field::kInsertRatio:
      return c.point.desc.family == WorkloadDesc::Family::kInsDel
                 ? c.point.desc.update_ratio
                 : NAN;
    case Field::kThreads: return static_cast<double>(c.threads);
    case Field::kOps: return static_cast<double>(c.result.ops);
    case Field::kMisses: return static_cast<double>(c.result.misses);
    case Field::kMeanNs: return mean;
    case Field::kMeanMops: return mean > 0.0 ? 1e3 / mean : 0.0;
    case Field::kWallMops: return c.result.ThroughputMops();
    case Field::kSizeMib: return ToMiB(c.stack.SizeBytes());
    case Field::kRefRatio: return mean / c.point.ref_ns;
    case Field::kMaxHeight: return c.stack.Stats().max_height;
    case Field::kMaxError: return c.stack.Stats().max_error;
    case Field::kAvgHeight: return c.stack.Stats().avg_height;
    case Field::kAvgError: return c.stack.Stats().avg_error;
    case Field::kNumNodes:
      return static_cast<double>(c.stack.Stats().num_nodes);
    default: return NAN;
  }
}

/// Columns printed in the table (12 characters each).
int ShownColumns(const Sweep& sweep) {
  return static_cast<int>(std::count_if(
      sweep.columns.begin(), sweep.columns.end(),
      [](const Column& col) { return col.precision >= 0; }));
}

/// Printed width of a point's cell, widened to fit the point's label.
int CellWidth(const Sweep& sweep, const Point& point) {
  return std::max(12 * ShownColumns(sweep),
                  static_cast<int>(point.label.size()) + 1);
}

/// Ops drawn for `desc` over `loaded` keys: a delete-heavy insdel stream
/// is capped at 3/4 of the loaded keys so it cannot drain them.
size_t OpsFor(const WorkloadDesc& desc, size_t loaded, const Options& opt) {
  const bool drains = desc.family == WorkloadDesc::Family::kInsDel &&
                      desc.update_ratio < 0.5;
  return drains ? std::min(opt.ops, loaded * 3 / 4) : opt.ops;
}

/// `count` range scans of exactly `width` keys at uniform start ranks.
std::vector<Operation> ScanStream(const std::vector<Key>& keys, size_t width,
                                  uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<Operation> ops;
  ops.reserve(count);
  for (size_t s = 0; s < count; ++s) {
    const size_t a = rng.NextBounded(keys.size() - width);
    ops.push_back({OpType::kScan, keys[a], keys[a + width - 1]});
  }
  return ops;
}

/// Builds one dataset's points: their keys and op streams, shared by
/// every index the sweep runs on them.
std::vector<Point> BuildPoints(const Sweep& sweep, const DatasetKind* kind,
                               const std::vector<WorkloadDesc>& descs,
                               const Options& opt) {
  const size_t init = opt.scale / sweep.init_div;
  std::vector<Key> keys;
  std::shared_ptr<const std::vector<KeyValue>> data;
  const auto load = [&](std::vector<Key> k) {
    keys = std::move(k);
    data = std::make_shared<const std::vector<KeyValue>>(ToKeyValues(keys));
  };
  const auto seed = [&](double x) {
    return opt.seed + sweep.seed_offset +
           (sweep.seed_adds_x ? static_cast<uint64_t>(x) : 0);
  };
  std::vector<Point> points;
  const auto add = [&](std::string label, double x, const WorkloadDesc& desc,
                       std::vector<Operation> ops) {
    Point& p = points.emplace_back();
    p.label = std::move(label);
    p.x = x;
    p.desc = desc;
    p.data = data;
    p.writes = std::any_of(ops.begin(), ops.end(), [](const Operation& op) {
      return IsWriteOp(op.type);
    });
    p.ops = std::move(ops);
  };
  const auto stream = [&](const WorkloadDesc& desc, double x) {
    return MaterializeWorkload(desc, keys, seed(x),
                               OpsFor(desc, keys.size(), opt));
  };
  switch (sweep.axis) {
    case Axis::kWorkloads:
      load(GenerateDataset(*kind, init, opt.seed));
      for (const WorkloadDesc& desc : descs) {
        add(desc.Canonical(), 0.0, desc, stream(desc, 0.0));
      }
      break;
    case Axis::kCardinality:
      for (double x : sweep.xs) {
        load(GenerateDataset(*kind, init * static_cast<size_t>(x) / 4,
                             opt.seed));
        add(std::to_string(keys.size()) + " keys", x, descs[0],
            stream(descs[0], x));
      }
      break;
    case Axis::kSkew:
      for (double x : sweep.xs) {
        load(GenerateClusteredSkew(init, x, opt.seed));
        char label[32];
        std::snprintf(label, sizeof(label), "lsn=%.3f", LocalSkewness(keys));
        add(label, x, descs[0], stream(descs[0], x));
      }
      break;
    case Axis::kPhases:
      load(GenerateDataset(*kind, init, opt.seed));
      for (WorkloadPhase& phase : MaterializeWorkloadPhases(
               descs[0], keys, seed(0.0), descs[0].batched_pool,
               descs[0].batched_queries)) {
        add(phase.name, 0.0, descs[0], std::move(phase.ops));
      }
      break;
    case Axis::kScanWidths:
      load(GenerateDataset(*kind, init, opt.seed));
      for (double x : sweep.xs) {
        const size_t width = static_cast<size_t>(x);
        if (width >= keys.size()) {
          std::printf("[skipped width %zu: only %zu keys loaded]\n", width,
                      keys.size());
          continue;
        }
        add("width=" + std::to_string(width), x, WorkloadDesc{},
            ScanStream(keys, width, seed(x), opt.ops / 100));
      }
      break;
  }
  return points;
}

/// One open-loop row (bench_ycsb --rate): coordinated-omission-safe
/// latency next to pure service time, split per op type.
void EmitOpenLoop(JsonReport& report, const std::string& index,
                  const Point& point, const OpenLoopResult& res) {
  std::printf(" rate %9.0f/s achieved %9.0f/s  p50 %8.0f ns  p99 %10.0f ns"
              "  max-backlog %zu",
              res.target_rate, res.AchievedRate(),
              res.latency.PercentileNanos(50),
              res.latency.PercentileNanos(99), res.max_backlog);
  JsonReport::Row& row =
      report.AddRow()
          .Str("index", index)
          .Str("workload", point.desc.Canonical())
          .Str("mode", "open-loop")
          .Num("target_rate", res.target_rate)
          .Num("achieved_rate", res.AchievedRate())
          .Num("ops", static_cast<double>(res.ops))
          .Num("misses", static_cast<double>(res.misses))
          .Num("max_backlog", static_cast<double>(res.max_backlog))
          .Num("max_lag_ns", static_cast<double>(res.max_lag_ns))
          .Num("lat_p50_ns", res.latency.PercentileNanos(50))
          .Num("lat_p99_ns", res.latency.PercentileNanos(99))
          .Num("lat_p999_ns", res.latency.PercentileNanos(99.9))
          .Num("service_p50_ns", res.service.PercentileNanos(50))
          .Num("service_p99_ns", res.service.PercentileNanos(99));
  for (size_t t = 0; t < kNumOpTypes; ++t) {
    const obs::LatencyHistogram& h = res.latency_by_type[t];
    if (h.count() == 0) continue;
    const std::string prefix(OpTypeName(static_cast<OpType>(t)));
    row.Num(prefix + "_count", static_cast<double>(h.count()))
        .Num(prefix + "_p50_ns", h.PercentileNanos(50))
        .Num(prefix + "_p99_ns", h.PercentileNanos(99));
  }
  // Fold the CO-safe samples into the blob's headline histogram too.
  report.histogram().Merge(res.latency);
}

/// Runs one table row: `index` over `points`. Returns false when the row
/// was skipped by the concurrent-write gate.
bool RunRow(const Sweep& sweep, const Options& opt, double rate,
            const std::string& dataset, const std::string& index,
            std::span<const Point> points, JsonReport& report) {
  std::printf("%-10s", index.c_str());
  // Phases build on each other and scans leave the stack unchanged, so
  // those points share one stack; every other point loads a fresh one.
  const bool one_stack =
      sweep.axis == Axis::kPhases || sweep.axis == Axis::kScanWidths;
  const bool writes = std::any_of(points.begin(), points.end(),
                                  [](const Point& p) { return p.writes; });
  std::unique_ptr<KvIndex> stack;
  for (const Point& point : points) {
    if (stack == nullptr || !one_stack) {
      stack = MakeBenchIndex(index, opt);
      // A write-bearing row on W > 1 threads runs only on stacks that
      // take concurrent writers: measuring the rest on one thread next
      // to W-thread rows would not be a comparable figure.
      if (writes && LacksConcurrentWrites(*stack, opt)) {
        std::printf("  [skipped: no concurrent-write support]\n");
        return false;
      }
      stack->BulkLoad(*point.data);
    }
    if (rate > 0.0) {
      OpenLoopOptions olo;
      olo.rate_ops_per_sec = rate;
      olo.warmup = opt.warmup;
      EmitOpenLoop(report, index, point,
                   RunOpenLoop(stack.get(), point.ops, olo));
      continue;
    }
    const ReplayOptions ro = ReplayOptionsFor(opt);
    const ReplayResult result =
        Replay(stack.get(), point.ops, ro, report.lat());
    const Cell cell{dataset, index, point, *stack, result, ro.threads};
    JsonReport::Row& row = report.AddRow();
    int extra = CellWidth(sweep, point) - 12 * ShownColumns(sweep);
    for (const Column& col : sweep.columns) {
      if (IsText(col.field)) {
        row.Str(col.key, Text(col.field, cell));
        continue;
      }
      const double v = Value(col.field, cell);
      if (std::isnan(v)) continue;
      row.Num(col.key, v);
      if (col.precision < 0) continue;
      std::printf(" %*.*f", 11 + extra, col.precision, v);
      extra = 0;
    }
  }
  std::printf("\n");
  std::fflush(stdout);
  return true;
}

int Run(const Sweep& sweep, const Options& opt, const ScenarioFlags& flags) {
  const std::string bench = std::string("bench_") + sweep.name;
  // The workload specs: --workload, else one ycsb-<m> per --mixes
  // letter, else the table's.
  std::vector<std::string> specs(sweep.workloads.begin(),
                                 sweep.workloads.end());
  if (!opt.workload.empty()) {
    specs = {opt.workload};
  } else if (!flags.mixes.empty()) {
    specs.clear();
    for (char m : flags.mixes) {
      if (m != ',' && m != ' ') specs.push_back(std::string("ycsb-") + m);
    }
  }
  std::vector<WorkloadDesc> descs;
  for (const std::string& spec : specs) {
    descs.push_back(ParseWorkloadOrDie(spec));
  }
  if (sweep.axis == Axis::kPhases) {
    WorkloadDesc& desc = descs[0];
    if (desc.family != WorkloadDesc::Family::kBatched) {
      std::fprintf(stderr,
                   "ERROR: %s drives phased batched workloads only; \"%s\" "
                   "is not batched(...). Use bench_ycsb or the other fig "
                   "harnesses for single-stream mixes.\n",
                   bench.c_str(), desc.Canonical().c_str());
      return 2;
    }
    if (desc.batched_pool == 0) desc.batched_pool = opt.scale / 2;
    if (desc.batched_queries == 0) desc.batched_queries = opt.ops / 8;
  }
  const std::vector<std::string> indexes =
      SweptIndexes(flags.index, sweep.indexes, opt);

  JsonReport report(sweep.name, opt);
  if (descs.size() == 1) report.SetWorkload(descs[0].Canonical());
  std::printf("=== %s ===\n", sweep.title);
  std::printf("stack %s, %zu initial keys, %zu ops per point, %s\n",
              SpecPattern(opt).c_str(), opt.scale / sweep.init_div, opt.ops,
              flags.rate > 0.0 ? "open-loop" : "closed-loop");

  size_t measured = 0;
  const size_t num_datasets = std::max<size_t>(sweep.datasets.size(), 1);
  for (size_t d = 0; d < num_datasets; ++d) {
    const DatasetKind* kind =
        sweep.datasets.empty() ? nullptr : &sweep.datasets[d];
    const std::string dataset(kind == nullptr ? "" : DatasetName(*kind));
    std::vector<Point> points = BuildPoints(sweep, kind, descs, opt);
    if (sweep.reference != nullptr) {
      for (Point& p : points) {
        std::unique_ptr<KvIndex> ref = MakeBenchIndex(sweep.reference, opt);
        ref->BulkLoad(*p.data);
        p.ref_ns = Replay(ref.get(), p.ops, ReplayOptionsFor(opt)).MeanNs();
      }
    }
    if (kind != nullptr) std::printf("\n--- dataset %s ---", dataset.c_str());
    const size_t per_table = sweep.table_per_point ? 1 : points.size();
    for (size_t first = 0; first < points.size(); first += per_table) {
      const std::span<const Point> table(points.data() + first, per_table);
      std::printf("\n%-10s", "index");
      for (const Point& p : table) {
        std::printf(" %*s", CellWidth(sweep, p) - 1, p.label.c_str());
      }
      std::printf("\n");
      PrintRule();
      for (const std::string& index : indexes) {
        measured += RunRow(sweep, opt, flags.rate, dataset, index, table,
                           report);
      }
    }
  }
  if (measured == 0) {
    std::fprintf(stderr,
                 "ERROR: %s: nothing was measured: no swept index supports "
                 "concurrent writes under --spec \"%s\" with %zu write "
                 "threads requested, or no sweep point fits --scale=%zu\n",
                 bench.c_str(), opt.spec.c_str(), opt.rthreads,
                 opt.scale);
    return 2;
  }
  report.Write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Sweep* sweep = std::find_if(
      std::begin(kSweeps), std::end(kSweeps),
      [](const Sweep& s) { return std::strcmp(s.name, CHAMELEON_SWEEP) == 0; });
  if (sweep == std::end(kSweeps)) {
    std::fprintf(stderr, "ERROR: no sweep named %s\n", CHAMELEON_SWEEP);
    return 2;
  }
  ScenarioFlags flags;
  std::vector<Flag> own;
  if (sweep->scenario_flags) {
    own = {StrFlag("--mixes=", &flags.mixes),
           StrFlag("--index=", &flags.index),
           NumFlag("--rate=", &flags.rate)};
  }
  // ext_range replays fixed-width range scans, not a workload stream.
  const Options opt = Options::Parse(
      argc, argv, std::move(own),
      {.workload = sweep->axis != Axis::kScanWidths});
  return Run(*sweep, opt, flags);
}
