#ifndef CHAMELEON_BENCH_BENCH_UTIL_H_
#define CHAMELEON_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/api/index_factory.h"
#include "src/api/index_spec.h"
#include "src/api/kv_index.h"
#include "src/data/dataset.h"
#include "src/engine/sharded_index.h"
#include "src/obs/latency_histogram.h"
#include "src/obs/metrics_sampler.h"
#include "src/obs/phase_timer.h"
#include "src/obs/stats.h"
#include "src/obs/trace_journal.h"
#include "src/simd/probe_kernel.h"
#include "src/util/crc32c.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"
#include "src/workload/workload_spec.h"

// Build provenance baked in by the top-level CMakeLists (configure-time
// `git rev-parse`; stale across commits without a reconfigure, which CI
// never does). The fallbacks keep ad-hoc compiles working.
#ifndef CHAMELEON_GIT_SHA
#define CHAMELEON_GIT_SHA "unknown"
#endif
#ifndef CHAMELEON_BUILD_TYPE
#define CHAMELEON_BUILD_TYPE "unknown"
#endif

namespace chameleon::bench {

/// Compiler identification for the JSON "build" block.
inline std::string CompilerString() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Strict number parsers behind every numeric flag: the whole text must
/// be the number (no sign, no trailing junk, no overflow).
inline bool ParseU64(const char* s, unsigned long long* out) {
  if (!std::isdigit(static_cast<unsigned char>(*s))) return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(s, &end, 10);
  return *end == '\0' && errno == 0;
}
inline bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0' && errno == 0 && std::isfinite(*out);
}

/// One command-line flag. A name ending in '=' takes the text after it
/// as its value ("--scale=N"); any other name is a bare switch
/// ("--prom"). `set` stores the value and returns false when it is
/// malformed or out of range.
struct Flag {
  std::string_view name;
  std::function<bool(const char* value)> set;
};

/// A numeric flag writing *field; values outside [lo, hi] are rejected.
template <typename T>
Flag NumFlag(std::string_view name, T* field, double lo = 0.0,
             double hi = HUGE_VAL) {
  return {name, [=](const char* v) {
            T value{};
            if constexpr (std::is_floating_point_v<T>) {
              if (!ParseDouble(v, &value)) return false;
            } else {
              unsigned long long n = 0;
              if (!ParseU64(v, &n)) return false;
              value = static_cast<T>(n);
            }
            if (value < lo || value > hi) return false;
            *field = value;
            return true;
          }};
}
inline Flag StrFlag(std::string_view name, std::string* field) {
  return {name, [=](const char* v) {
            *field = v;
            return true;
          }};
}
inline Flag SwitchFlag(std::string_view name, bool* field) {
  return {name, [=](const char*) { return *field = true; }};
}

/// Flags of every harness. Shared (Options::Parse, every binary):
///   --scale=N      base dataset cardinality (default 200'000; the paper
///                  uses 200M — results scale in shape, not absolutes)
///   --ops=N        operations per measurement (default 100'000)
///   --seed=N       RNG seed
///   --json=PATH    write a machine-readable result blob (throughput,
///                  latency percentiles, counter snapshot) to PATH
///   --trace=PATH   dump the obs::TraceJournal as JSONL to PATH (benches
///                  that enable the journal; see bench_fig14_retraining)
///   --threads=N    thread-pool width for construction/retraining (0 =
///                  CHAMELEON_THREADS env or hardware concurrency)
///   --batch=N      issue kLookup runs through LookupBatch in groups of
///                  N (1 = per-key Lookup; benches that replay)
///   --spec=STACK   deployment adapter stack wrapped around every index
///                  the bench sweeps, as a ':'-separated adapter chain
///                  (the swept index name is appended as the leaf):
///                  --spec='Sharded4' or
///                  --spec='Sharded2:Durable(/tmp/d,fsync=everyN)'.
///                  Numbers in it take decimal suffixes
///                  (Disk(d,frames=1k) is 1000 frames). Parsed and
///                  canonicalized up front; a bad stack prints the spec
///                  grammar and exits. The blob's "shards" is read back
///                  from the canonical stack: the product of its
///                  Sharded<N> layers, 1 when it has none.
///   --rthreads=R   foreground replay threads (driver layer). Read-only
///                  replays fan out over contiguous chunks; write-bearing
///                  replays run on R threads too when the composed stack
///                  supports concurrent writes — the driver partitions
///                  the stream by key ownership so results stay
///                  oracle-equivalent to a serial replay. Stacks that
///                  do not support concurrent writes fail loudly
///                  (RequireConcurrentWritesOrDie) or are skipped by
///                  sweep benches with a notice; the driver itself
///                  refuses them (Replay throws std::invalid_argument),
///                  so no run is silently single-threaded. (fig15
///                  keeps its inserts on one thread and fans out only
///                  its reads.)
///   --warmup=N     leading ops replayed untimed before measurement
///   --series=PATH  run the obs::MetricsSampler for the duration of the
///                  bench and flush its time series (counters, histogram
///                  digests, unit heatmaps — one JSONL line per tick) to
///                  PATH at exit
///   --sample-ms=N  sampler tick period in milliseconds (default 100)
///   --workload=SPEC
///                  replace the binary's built-in operation stream with a
///                  workload-grammar spec (src/workload/workload_spec.h):
///                  e.g. --workload='ycsb-a(zipf=0.99)' or
///                  --workload='mixed(w=0.2,dist=hotspot(width=5%,period=1M))'.
///                  Parsed and canonicalized up front (bad specs print
///                  the workload grammar and exit 2); the canonical spec
///                  is echoed in the JSON blob. Sweeps whose points ARE
///                  workloads (fig11's write ratios, fig12's update
///                  ratios, tab03's read and insert streams, bench_ycsb's
///                  mixes) replace the whole sweep with the single
///                  requested workload. Only the sweeps (bar ext_range)
///                  and chameleon_inspect take it; other binaries replay
///                  streams their figure fixes and exit 2.
///
/// A binary that would ignore --spec or --workload refuses it (exit 2;
/// see Accepts): the ablations, fig15, probe_kernel and tiered build
/// their own stacks, so they take no --spec.
///
/// Per-binary (each passes its own entries to Options::Parse):
///   bench_ycsb                --mixes=a,b,..  YCSB mixes to sweep
///                             (default a-f; ignored under --workload),
///                             --index=NAME, --rate=R open-loop arrival
///                             rate in ops/s (0 = closed-loop replay)
///   bench_fig10_construction  --index=NAME
///   bench_durability          --crash-after=N, --dir=PATH
///   bench_tiered              --dir=PATH, --merge=N (N >= 1)
///   chameleon_inspect         --index=NAME, --dataset=, --sigma=,
///                             --top=, --out=, --prom, --kernels,
///                             --tiered (see its header)
/// --index=NAME means the same everywhere: the one leaf to build,
/// composed under --spec like every swept name (ComposeSpec).
///
/// The shared inputs a binary uses; Options::Parse refuses the others.
struct Accepts {
  bool spec = true;       // builds its indexes through MakeBenchIndex
  bool workload = false;  // replays a --workload stream
};

/// One parser serves all of them: an argument outside the shared table
/// and the binary's own entries — a typo, a bare word, another binary's
/// flag — exits 2 with the flag list, and a malformed or out-of-range
/// value exits 2 naming the argument.
struct Options {
  size_t scale = 200'000;
  size_t ops = 100'000;
  uint64_t seed = 42;
  size_t threads = 0;
  size_t batch = 1;
  /// Product of the --spec stack's Sharded<N> layers (1 without any).
  size_t shards = 1;
  size_t rthreads = 1;
  size_t warmup = 0;
  size_t sample_ms = 100;
  /// Canonicalized adapter stack every swept index is wrapped in;
  /// "" = plain indexes.
  std::string spec;
  /// Canonicalized --workload override ("" = the bench's built-in mix).
  std::string workload;
  std::string json_path;
  std::string trace_path;
  std::string series_path;

  /// Parses the shared flags plus the binary's `own` entries; exits 2
  /// on anything else, and on --spec or --workload unless `accepts`.
  static Options Parse(int argc, char** argv, std::vector<Flag> own = {},
                       Accepts accepts = {}) {
    Options opt;
    std::vector<Flag> flags = {
        NumFlag("--scale=", &opt.scale),
        NumFlag("--ops=", &opt.ops),
        NumFlag("--seed=", &opt.seed),
        NumFlag("--threads=", &opt.threads),
        NumFlag("--batch=", &opt.batch),
        NumFlag("--rthreads=", &opt.rthreads),
        NumFlag("--warmup=", &opt.warmup),
        NumFlag("--sample-ms=", &opt.sample_ms),
        StrFlag("--json=", &opt.json_path),
        StrFlag("--trace=", &opt.trace_path),
        StrFlag("--series=", &opt.series_path),
        StrFlag("--spec=", &opt.spec),
        StrFlag("--workload=", &opt.workload),
    };
    std::move(own.begin(), own.end(), std::back_inserter(flags));
    std::string list = "options:";
    for (const Flag& flag : flags) {
      list += ' ';
      list += flag.name;
      if (flag.name.back() == '=') list += "...";
    }
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--help") == 0) {
        std::printf("%s\n\n%s\n%s", list.c_str(),
                    IndexSpecGrammarHelp().c_str(),
                    WorkloadGrammarHelp().c_str());
        std::exit(0);
      }
      const auto flag = std::find_if(
          flags.begin(), flags.end(), [arg](const Flag& f) {
            return f.name.back() == '=' ? std::string_view(arg).starts_with(f.name)
                                        : f.name == arg;
          });
      if (flag == flags.end()) {
        std::fprintf(stderr, "ERROR: unknown flag \"%s\"\n%s\n", arg,
                     list.c_str());
        std::exit(2);
      }
      if (!flag->set(arg + flag->name.size())) {
        std::fprintf(stderr, "ERROR: bad value in \"%s\"\n", arg);
        std::exit(2);
      }
    }
    // Counts where 0 means the smallest useful value.
    for (size_t* n :
         {&opt.batch, &opt.rthreads, &opt.sample_ms}) {
      *n = std::max<size_t>(*n, 1);
    }
    if (!opt.spec.empty() && !accepts.spec) {
      std::fprintf(stderr, "ERROR: %s builds its own index stacks; it "
                   "takes no --spec\n", argv[0]);
      std::exit(2);
    }
    if (!opt.spec.empty()) {
      std::string error;
      const std::string canonical = CanonicalAdapterStack(opt.spec, &error);
      if (canonical.empty()) {
        std::fprintf(stderr, "ERROR: bad --spec \"%s\": %s\n%s",
                     opt.spec.c_str(), error.c_str(),
                     IndexSpecGrammarHelp().c_str());
        std::exit(2);
      }
      opt.spec = canonical;
      SpecError spec_error;
      const std::unique_ptr<SpecNode> stack =
          ParseIndexSpec(opt.spec, &spec_error);
      for (const SpecNode* node = stack.get(); node != nullptr;
           node = node->inner.get()) {
        if (node->name == "Sharded") opt.shards *= node->count;
      }
    }
    if (!opt.workload.empty()) {
      if (!accepts.workload) {
        std::fprintf(stderr, "ERROR: %s replays the streams its figure "
                     "fixes; it takes no --workload\n", argv[0]);
        std::exit(2);
      }
      opt.workload = ParseWorkloadOrDie(opt.workload).Canonical();
    }
    // Resize the global pool up front, before any index construction.
    if (opt.threads > 0) SetGlobalThreads(opt.threads);
    return opt;
  }
};

/// Full spec string for one swept index under the current options: the
/// canonical --spec adapter stack wrapped around `name`.
inline std::string ComposeSpec(std::string_view name, const Options& opt) {
  return opt.spec.empty() ? std::string(name)
                          : opt.spec + ":" + std::string(name);
}

/// The spec every JSON blob echoes: the canonical adapter stack with a
/// "<index>" placeholder leaf (benches sweep many leaves per run).
inline std::string SpecPattern(const Options& opt) {
  return opt.spec.empty() ? std::string("<index>") : opt.spec + ":<index>";
}

/// MakeIndex that cannot fail silently: on a bad spec, prints the
/// parser's position-accurate error plus the spec grammar and valid
/// base-index names, then exits. Benches use this everywhere so a typo
/// in --index/--spec never turns into a nullptr crash.
inline std::unique_ptr<KvIndex> MakeIndexOrDie(std::string_view spec) {
  std::string error;
  std::unique_ptr<KvIndex> index = MakeIndex(spec, &error);
  if (index == nullptr) {
    std::fprintf(stderr, "ERROR: cannot build index \"%.*s\": %s\n%s",
                 static_cast<int>(spec.size()), spec.data(), error.c_str(),
                 IndexSpecGrammarHelp().c_str());
    std::exit(2);
  }
  return index;
}

/// Creates the index a bench drives for `name` under the current
/// options: `name` wrapped in the --spec adapter stack. Dies loudly on
/// an invalid composition.
inline std::unique_ptr<KvIndex> MakeBenchIndex(std::string_view name,
                                               const Options& opt) {
  return MakeIndexOrDie(ComposeSpec(name, opt));
}

/// The leaves a sweep builds: `all`, or only `index` (a binary's
/// --index=NAME) when set. A bad NAME dies here, before any work.
inline std::vector<std::string> SweptIndexes(const std::string& index,
                                             std::vector<std::string> all,
                                             const Options& opt) {
  if (index.empty()) return all;
  MakeBenchIndex(index, opt);
  return {index};
}

/// Replay options for this bench's replays: R = --rthreads driver
/// threads (a read-only stream fans out over contiguous chunks; a
/// write-bearing one is partitioned by key ownership and puts the stack
/// in concurrent-write mode when R > 1), --batch lookup batching (also
/// within each thread's owned stream), --warmup untimed lead-in.
inline ReplayOptions ReplayOptionsFor(const Options& opt) {
  ReplayOptions ro;
  ro.threads = opt.rthreads;
  ro.batch = opt.batch;
  ro.warmup = opt.warmup;
  return ro;
}

/// True when a multi-threaded write-bearing replay was requested but
/// `index` cannot take concurrent writers. The sweep runner asks it once
/// per write-bearing table row: unsupported stacks are skipped with a
/// printed notice so the supported rows still run under the requested
/// threading — and the run fails loudly only if *nothing* supported it.
inline bool LacksConcurrentWrites(const KvIndex& index, const Options& opt) {
  return opt.rthreads > 1 && !index.SupportsConcurrentWrites();
}

/// Capability gate for single-stack tools: fails loudly (exit 2) when a
/// multi-threaded write-bearing replay was requested against a stack
/// that cannot accept concurrent writers. A silently single-threaded
/// run is worse than no run — its numbers look like an R-thread result.
/// Replaces the old hardcoded RejectRthreadsOnWrites name lists: the
/// stack itself is asked (KvIndex::SupportsConcurrentWrites), so new
/// capable indexes work without harness edits and incapable ones can
/// never slip through. Mirrors the fig10 bad --index pattern.
inline void RequireConcurrentWritesOrDie(const KvIndex& index,
                                         const Options& opt, const char* bench,
                                         const char* detail) {
  if (!LacksConcurrentWrites(index, opt)) return;
  std::fprintf(stderr,
               "ERROR: %s replays a write-bearing stream on %zu threads, "
               "but \"%.*s\" does not support concurrent writes\n  %s\n  "
               "Drop --rthreads, or pick a stack whose "
               "SupportsConcurrentWrites() is true (e.g. Chameleon, "
               "including under Durable/Sharded adapters).\n",
               bench, opt.rthreads,
               static_cast<int>(index.Name().size()), index.Name().data(),
               detail);
  std::exit(2);
}

inline double ToMiB(size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

inline void PrintRule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// --- Machine-readable results (--json=PATH) ---------------------------------

inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Writes a document's one-line "build" member (trailing comma), shared
/// by every --json blob and chameleon_inspect: source revision, compiler,
/// build type, instrumentation state, the probe-kernel tier the run
/// actually dispatched to (cpuid + CHAMELEON_SIMD_LEVEL at runtime), and
/// the CRC-32C path every page, WAL record and snapshot check ran
/// ("sse4.2" instruction or "table"; cpuid at runtime).
inline void WriteBuildJson(FILE* f, uint64_t seed) {
  std::fprintf(f,
               "  \"build\": {\"git_sha\": \"%s\", \"compiler\": \"%s\", "
               "\"build_type\": \"%s\", \"seed\": %llu, \"no_stats\": %s, "
               "\"simd_kernel\": \"%s\", \"crc32c\": \"%s\"},\n",
               JsonEscape(CHAMELEON_GIT_SHA).c_str(),
               JsonEscape(CompilerString()).c_str(),
               JsonEscape(CHAMELEON_BUILD_TYPE).c_str(),
               static_cast<unsigned long long>(seed),
#ifdef CHAMELEON_NO_STATS
               "true",
#else
               "false",
#endif
               JsonEscape(simd::SimdLevelName(simd::ActiveSimdLevel()))
                   .c_str(),
               crc32c_internal::HardwareAvailable() ? "sse4.2" : "table");
}

/// The CPU's model name as /proc/cpuinfo gives it, "unknown" where it
/// has none.
inline std::string CpuModelName() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const size_t colon = line.find(':');
    if (line.starts_with("model name") && colon != std::string::npos) {
      const size_t start = line.find_first_not_of(' ', colon + 1);
      if (start != std::string::npos) return line.substr(start);
    }
  }
  return "unknown";
}

/// Writes a document's one-line "host" member (trailing comma), shared
/// like the "build" block: the CPU model and the hardware threads the
/// process can see.
inline void WriteHostJson(FILE* f) {
  std::fprintf(f, "  \"host\": {\"cpu\": \"%s\", \"vcpus\": %u},\n",
               JsonEscape(CpuModelName()).c_str(),
               std::thread::hardware_concurrency());
}

/// Writes a document's closing "counters" member: every StatsRegistry
/// counter's total, one per line. The caller closes the object.
inline void WriteCountersJson(FILE* f) {
  const obs::CounterSnapshot snap = obs::StatsRegistry::Get().Snapshot();
  std::fprintf(f, "  \"counters\": {");
  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    const std::string_view name =
        obs::CounterName(static_cast<obs::Counter>(i));
    std::fprintf(f, "%s\n    \"%.*s\": %llu", i == 0 ? "" : ",",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<unsigned long long>(snap[i]));
  }
  std::fprintf(f, "\n  }\n");
}

/// Collects one bench run's results and writes the `--json=PATH` blob:
///
///   {
///     "bench": "...", "scale": N, "ops": N, "seed": N,
///     "threads": N, "batch": N, "shards": N, "rthreads": N,
///     "sample_ms": N,
///     "spec": "Sharded4:Durable(...):<index>",  // canonical adapter
///                                               // stack per swept index
///     "workload": "<canonical spec>",    // only when one was driven
///     "build": {"git_sha","compiler","build_type","seed","no_stats",
///               "simd_kernel","crc32c"}, // WriteBuildJson
///     "host": {"cpu","vcpus"},           // WriteHostJson
///     "throughput_mops": X,              // from the latency histogram
///     "latency_ns": {"count","mean","p50","p90","p99","p999","max"},
///     "rows": [ {bench-specific fields}, ... ],
///     "counters": { "<CounterName>": total, ... }   // WriteCountersJson
///   }
///
/// Successive PRs diff these blobs (collected as BENCH_*.json, see
/// EXPERIMENTS.md) to track perf over time. Usage: construct one report
/// per binary, pass `lat()` to the replay helpers (null when --json is
/// absent, so default runs keep batch timing), AddRow() per table cell,
/// and Write() before exit.
class JsonReport {
 public:
  class Row {
   public:
    Row& Num(std::string_view key, double v) {
      fields_.push_back({std::string(key), true, v, {}});
      return *this;
    }
    Row& Str(std::string_view key, std::string_view v) {
      fields_.push_back({std::string(key), false, 0.0, std::string(v)});
      return *this;
    }

   private:
    friend class JsonReport;
    struct Field {
      std::string key;
      bool is_num;
      double num;
      std::string str;
    };
    std::vector<Field> fields_;
  };

  JsonReport(std::string_view bench, const Options& opt)
      : bench_(bench), opt_(opt) {
    if (!opt_.series_path.empty()) {
      obs::SamplerOptions so;
      so.interval = std::chrono::milliseconds(opt_.sample_ms);
      sampler_ = std::make_unique<obs::MetricsSampler>(so);
      sampler_->Start();
    }
  }

  bool enabled() const { return !opt_.json_path.empty(); }

  /// Histogram to feed measured per-op latencies into; null when --json
  /// was not requested (callers pass it straight to Replay).
  obs::LatencyHistogram* lat() { return enabled() ? &lat_ : nullptr; }
  obs::LatencyHistogram& histogram() { return lat_; }

  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Flushes telemetry sinks (sampler series, trace journal) and writes
  /// the blob to --json=PATH (a no-op without that flag). Returns false
  /// and warns on I/O error. Telemetry flushing lives here — the one
  /// call every harness already makes — so --series and --trace can
  /// never drift out of a binary the way DumpTraceIfRequested once did
  /// (PR 6 found 13 of 16 harnesses parsing --trace but never dumping).
  bool Write() {
    FinishTelemetry();
    if (!enabled()) return true;
    FILE* f = std::fopen(opt_.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "WARNING: cannot write --json=%s\n",
                   opt_.json_path.c_str());
      return false;
    }
    const double mean = lat_.MeanNanos();
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"scale\": %zu,\n"
                 "  \"ops\": %zu,\n"
                 "  \"seed\": %llu,\n"
                 "  \"threads\": %zu,\n"
                 "  \"batch\": %zu,\n"
                 "  \"shards\": %zu,\n"
                 "  \"rthreads\": %zu,\n"
                 "  \"sample_ms\": %zu,\n"
                 "  \"spec\": \"%s\",\n",
                 JsonEscape(bench_).c_str(), opt_.scale, opt_.ops,
                 static_cast<unsigned long long>(opt_.seed),
                 GlobalPool().num_threads(), opt_.batch, opt_.shards,
                 opt_.rthreads, opt_.sample_ms,
                 JsonEscape(SpecPattern(opt_)).c_str());
    // Canonical workload spec (set by benches through SetWorkload, or
    // from --workload): fully self-describing — every default filled in
    // — so a blob can be reproduced without knowing the harness's
    // built-in mix.
    if (!workload_.empty()) {
      std::fprintf(f, "  \"workload\": \"%s\",\n",
                   JsonEscape(workload_).c_str());
    }
    WriteBuildJson(f, opt_.seed);
    WriteHostJson(f);
    std::fprintf(f, "  \"throughput_mops\": %.6g,\n",
                 mean > 0.0 ? 1e3 / mean : 0.0);
    std::fprintf(f,
                 "  \"latency_ns\": {\"count\": %llu, \"mean\": %.6g, "
                 "\"p50\": %.6g, \"p90\": %.6g, \"p99\": %.6g, "
                 "\"p999\": %.6g, \"max\": %.6g},\n",
                 static_cast<unsigned long long>(lat_.count()), mean,
                 lat_.PercentileNanos(50), lat_.PercentileNanos(90),
                 lat_.PercentileNanos(99), lat_.PercentileNanos(99.9),
                 lat_.MaxNanos());
    std::fprintf(f, "  \"rows\": [");
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s\n    {", r == 0 ? "" : ",");
      const auto& fields = rows_[r].fields_;
      for (size_t i = 0; i < fields.size(); ++i) {
        const auto& field = fields[i];
        if (field.is_num) {
          std::fprintf(f, "%s\"%s\": %.6g", i == 0 ? "" : ", ",
                       JsonEscape(field.key).c_str(), field.num);
        } else {
          std::fprintf(f, "%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                       JsonEscape(field.key).c_str(),
                       JsonEscape(field.str).c_str());
        }
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "%s],\n", rows_.empty() ? "" : "\n  ");
    WriteCountersJson(f);
    std::fprintf(f, "}\n");
    const bool ok = std::fclose(f) == 0;
    if (ok) std::fprintf(stderr, "wrote %s\n", opt_.json_path.c_str());
    return ok;
  }

  /// Stops the sampler and flushes --series, then dumps the trace
  /// journal to --trace=PATH (or, with --json=PATH and an enabled
  /// journal, to PATH + ".trace.jsonl"). Idempotent; Write() calls it,
  /// so no harness needs its own telemetry epilogue.
  void FinishTelemetry() {
    if (telemetry_done_) return;
    telemetry_done_ = true;
    if (sampler_ != nullptr) {
      sampler_->Stop();
      if (sampler_->WriteJsonl(opt_.series_path)) {
        std::fprintf(stderr, "wrote %s (%zu ticks)\n",
                     opt_.series_path.c_str(), sampler_->total_ticks());
      } else {
        std::fprintf(stderr, "WARNING: cannot write --series=%s\n",
                     opt_.series_path.c_str());
      }
    }
    std::string trace_path = opt_.trace_path;
    if (trace_path.empty() && !opt_.json_path.empty() &&
        obs::TraceJournal::Get().enabled()) {
      trace_path = opt_.json_path + ".trace.jsonl";
    }
    if (trace_path.empty()) return;
    if (obs::TraceJournal::Get().DumpJsonl(trace_path)) {
      std::fprintf(stderr, "wrote %s (%zu events)\n", trace_path.c_str(),
                   obs::TraceJournal::Get().size());
    } else {
      std::fprintf(stderr, "WARNING: cannot write trace %s\n",
                   trace_path.c_str());
    }
  }

  /// Records the canonical workload spec this run actually drove (the
  /// blob echoes it as "workload"). A sweep that runs several workloads
  /// per blob leaves it unset and puts the canonical spec in each row.
  void SetWorkload(std::string canonical) { workload_ = std::move(canonical); }

 private:
  std::string bench_;
  Options opt_;
  std::string workload_;
  obs::LatencyHistogram lat_;
  std::vector<Row> rows_;
  std::unique_ptr<obs::MetricsSampler> sampler_;
  bool telemetry_done_ = false;
};

}  // namespace chameleon::bench

#endif  // CHAMELEON_BENCH_BENCH_UTIL_H_
