#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/src/span_index.h"
#include "src/data/dataset.h"

namespace perfbench {

/// One benchmark workload: a YCSB mix on a generated dataset, replayed
/// closed-loop through one index stack. README.md gives the reasons.
struct WorkloadConfig {
  const char* name;
  const char* workload_spec;  // src/workload spec grammar
  chameleon::DatasetKind dataset;
  /// Index stack spec; "{dir}" becomes a fresh directory per build.
  const char* stack;
  /// The same stack with Span decorators at its layer boundaries.
  const char* traced_stack;
  /// Closed-loop client threads (capped at the host's core count).
  size_t clients;
  /// Runs ChameleonIndex::StartRetrainer(100ms) during the workload.
  bool retrainer;
  /// The correctness gate also closes the stack, reopens it with
  /// Recover() and checks again.
  bool reopen_check;
  /// Operations per timed segment (50-150 ms of work at full scale).
  size_t segment_ops;
  /// Measured segments per trial, alternating throughput and latency.
  size_t trial_segments;
  /// Untimed warm-up prefix of the stream, replayed by every trial.
  size_t warmup_ops;
};

const std::vector<WorkloadConfig>& Workloads();
const WorkloadConfig* FindWorkload(std::string_view name);

/// Substitutes `dir` for every "{dir}" in `stack`.
std::string ExpandStack(std::string_view stack, const std::string& dir);

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t keys = 1'000'000;
  /// Parent of the per-build stack directories; removed afterwards.
  std::string scratch_dir = ".perfbench/scratch";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  // values the figure summarizes
};

struct RunReport {
  /// False when any correctness gate failed; `errors` says which.
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  /// Absolute figures behind the relative end-to-end ones; not gated.
  std::vector<Metric> raw;
  std::vector<Metric> per_layer;
  /// Provenance entries: key and JSON-encoded value.
  std::vector<std::pair<std::string, std::string>> provenance;
  /// Per-segment figures behind the medians, for the result file.
  std::vector<std::pair<std::string, std::vector<double>>> series;
  /// Spans kept by the traced run (empty without --trace).
  std::vector<SpanRecord> spans;
};

/// Runs one workload: the end-to-end protocol, and with `trace` also a
/// second, traced stack. Never throws; failures land in the report.
RunReport RunWorkload(const WorkloadConfig& config, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
