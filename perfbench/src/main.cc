// perfbench: the repository's benchmark binary. Runs one workload through
// its Chameleon stack and prints every metric by name, with its unit and
// sample count, then one JSON result line. Exits 1 when a correctness
// gate fails, 2 on bad arguments. perfbench/run.py builds and drives it;
// see perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "perfbench/src/bench.h"

namespace {

using perfbench::Metric;
using perfbench::RunReport;

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--keys N] [--out-dir DIR] "
               "[--scratch-dir DIR] [--source-id ID] [--git-sha SHA]\n"
               "  workloads:");
  for (const auto& w : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

std::string SamplesJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name +
           "\": " + std::to_string(metrics[i].samples);
  }
  return out + "}";
}

void WriteSpans(const RunReport& report, const std::string& path) {
  std::ofstream out(path);
  out << "id,parent,request,thread,instance,layer,op,start_ns,end_ns\n";
  for (const perfbench::SpanRecord& s : report.spans) {
    out << s.id << ',' << s.parent << ',' << s.request << ',' << s.thread
        << ',' << s.instance << ',' << perfbench::LayerName(s.layer) << ','
        << perfbench::SpanOpName(s.op) << ',' << s.start_ns << ','
        << s.end_ns << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  std::string out_dir = ".perfbench/out";
  std::string source_id = "unknown";
  std::string git_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else if (flag == "--keys") {
      options.keys = std::strtoull(value, nullptr, 10);
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else if (flag == "--scratch-dir") {
      options.scratch_dir = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      Usage();
      return 2;
    }
  }
  const perfbench::WorkloadConfig* config = perfbench::FindWorkload(workload);
  if (config == nullptr || (argc - 1) % 2 != 0 || options.seconds <= 0 ||
      options.keys < 1000) {
    Usage();
    return 2;
  }

  RunReport report = perfbench::RunWorkload(*config, options);
  report.provenance.emplace_back("git_sha", "\"" + git_sha + "\"");
  report.provenance.emplace_back("source_id", "\"" + source_id + "\"");

  std::string provenance = "{";
  for (size_t i = 0; i < report.provenance.size(); ++i) {
    if (i > 0) provenance += ", ";
    provenance += "\"" + report.provenance[i].first +
                  "\": " + report.provenance[i].second;
  }
  provenance += "}";

  std::printf("provenance %s\n", provenance.c_str());
  for (const std::string& error : report.errors) {
    std::printf("GATE FAILED: %s\n", error.c_str());
  }
  for (const auto* group :
       {&report.end_to_end, &report.raw, &report.per_layer}) {
    for (const Metric& m : *group) {
      std::printf("%-36s %16.6f %-7s (n=%llu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string stem = out_dir + "/" + workload;
  {
    std::ofstream out(stem + (options.trace ? ".trace.json" : ".json"));
    out << "{\"provenance\": " << provenance
        << ", \"correct\": " << (report.correct ? "true" : "false")
        << ", \"attempted\": " << report.attempted
        << ", \"failed\": " << report.failed
        << ", \"end_to_end\": " << MetricsJson(report.end_to_end)
        << ", \"raw\": " << MetricsJson(report.raw)
        << ", \"per_layer\": " << MetricsJson(report.per_layer)
        << ", \"samples\": "
        << SamplesJson(options.trace ? report.per_layer : report.end_to_end);
    for (const auto& [name, values] : report.series) {
      out << ", \"" << name << "\": [";
      for (size_t i = 0; i < values.size(); ++i) {
        out << (i > 0 ? ", " : "") << Number(values[i]);
      }
      out << "]";
    }
    out << "}\n";
  }
  if (options.trace) WriteSpans(report, stem + ".spans.csv");

  const auto& metrics = options.trace ? report.per_layer : report.end_to_end;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, report.attempted)),
      static_cast<unsigned long long>(report.failed),
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
