#include "src/workload/workload_spec.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace chameleon {
namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_';
}

/// Scalar values stop at the grammar's structural characters; '%' and
/// unit suffixes ride along with the number they follow.
bool IsScalarChar(char c) {
  return c != '(' && c != ')' && c != ',' && c != '=' &&
         !std::isspace(static_cast<unsigned char>(c));
}

// --- Parse tree (internal; the public surface is WorkloadDesc) --------------

struct Call;

struct Arg {
  std::string key;  // empty for positional arguments
  std::string scalar;
  std::unique_ptr<Call> call;  // non-null when the value is name(...)
  size_t pos = 0;
};

struct Call {
  std::string name;
  std::vector<Arg> args;
  size_t pos = 0;
};

/// Recursive-descent parser over the grammar in workload_spec.h, same
/// idiom as the index-spec parser: `pos` always points at the next
/// unconsumed character, every failure records its offset.
struct Parser {
  std::string_view spec;
  size_t pos = 0;
  WorkloadSpecError* error;

  std::nullptr_t Fail(size_t at, std::string message) {
    error->pos = at;
    error->message = std::move(message);
    return nullptr;
  }

  std::unique_ptr<Call> ParseCall() {
    const size_t start = pos;
    while (pos < spec.size() && IsNameChar(spec[pos])) ++pos;
    if (pos == start) {
      if (pos >= spec.size()) return Fail(pos, "expected a workload name");
      return Fail(pos, std::string("unexpected character '") + spec[pos] +
                           "' where a name should start");
    }
    auto call = std::make_unique<Call>();
    call->pos = start;
    call->name = std::string(spec.substr(start, pos - start));
    if (pos < spec.size() && spec[pos] == '(') {
      if (!ParseArgs(call.get())) return nullptr;
    }
    return call;
  }

  bool ParseArgs(Call* call) {
    ++pos;  // consume '('
    if (pos < spec.size() && spec[pos] == ')') {
      ++pos;  // empty argument list: "read()"
      return true;
    }
    while (true) {
      Arg arg;
      arg.pos = pos;
      if (!ParseValue(&arg)) return false;
      if (pos < spec.size() && spec[pos] == '=') {
        if (arg.scalar.empty() || arg.call != nullptr) {
          Fail(arg.pos, "expected an option key before '='");
          return false;
        }
        arg.key = std::move(arg.scalar);
        arg.scalar.clear();
        ++pos;
        const size_t value_pos = pos;
        if (!ParseValue(&arg)) return false;
        if (arg.scalar.empty() && arg.call == nullptr) {
          Fail(value_pos, "missing value for option '" + arg.key + "'");
          return false;
        }
      } else if (arg.scalar.empty() && arg.call == nullptr) {
        Fail(pos, pos < spec.size()
                      ? std::string("unexpected character '") + spec[pos] +
                            "' in argument list"
                      : std::string("unclosed '(' in argument list"));
        return false;
      }
      call->args.push_back(std::move(arg));
      if (pos >= spec.size()) {
        Fail(pos, "unclosed '(' in argument list");
        return false;
      }
      if (spec[pos] == ',') {
        ++pos;
        continue;
      }
      if (spec[pos] == ')') {
        ++pos;
        return true;
      }
      Fail(pos, std::string("expected ',' or ')' in argument list, got '") +
                    spec[pos] + "'");
      return false;
    }
  }

  /// A value is either a nested call (name followed by '(') or a
  /// scalar token. A bare name ("uniform") parses as a scalar; the
  /// compiler decides whether it names a distribution.
  bool ParseValue(Arg* arg) {
    const size_t start = pos;
    while (pos < spec.size() && IsNameChar(spec[pos])) ++pos;
    if (pos > start && pos < spec.size() && spec[pos] == '(') {
      auto call = std::make_unique<Call>();
      call->pos = start;
      call->name = std::string(spec.substr(start, pos - start));
      if (!ParseArgs(call.get())) return false;
      arg->call = std::move(call);
      return true;
    }
    // Not a call: extend the token to a full scalar (numbers can carry
    // '.', '%', suffixes — anything non-structural).
    pos = start;
    while (pos < spec.size() && IsScalarChar(spec[pos])) ++pos;
    arg->scalar = std::string(spec.substr(start, pos - start));
    return true;
  }
};

// --- Number parsing ---------------------------------------------------------

/// Parses "0.99", "5%", "1M", "20k", "1000000" into a double. Suffixes:
/// % divides by 100; k/K, M, G multiply by 1e3/1e6/1e9.
bool ParseNumber(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || errno != 0) return false;
  if (*end == '\0') {
    *out = v;
    return true;
  }
  if (end[1] != '\0') return false;  // at most one suffix character
  switch (*end) {
    case '%': v /= 100.0; break;
    case 'k': case 'K': v *= 1e3; break;
    case 'M': v *= 1e6; break;
    case 'G': v *= 1e9; break;
    default: return false;
  }
  *out = v;
  return true;
}

std::string FormatNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// --- Compiler ---------------------------------------------------------------

struct Compiler {
  WorkloadSpecError* error;

  bool Fail(size_t at, std::string message) {
    error->pos = at;
    error->message = std::move(message);
    return false;
  }

  bool Number(const Arg& arg, const char* what, double* out) {
    if (arg.call != nullptr) {
      return Fail(arg.pos, std::string("expected a number for ") + what);
    }
    if (!ParseNumber(arg.scalar, out)) {
      return Fail(arg.pos, "bad number \"" + arg.scalar + "\" for " + what);
    }
    return true;
  }

  bool Fraction(const Arg& arg, const char* what, double* out) {
    if (!Number(arg, what, out)) return false;
    if (*out < 0.0 || *out > 1.0) {
      return Fail(arg.pos, std::string(what) + " must be in [0, 1]");
    }
    return true;
  }

  bool Count(const Arg& arg, const char* what, uint64_t* out) {
    double v = 0.0;
    if (!Number(arg, what, &v)) return false;
    if (v < 0.0) return Fail(arg.pos, std::string(what) + " must be >= 0");
    *out = static_cast<uint64_t>(v);
    return true;
  }

  bool CompileDist(const Arg& arg, DistDesc* dist) {
    // Value is either a bare name ("uniform") or a call ("zipf(0.99)").
    std::string name;
    const Call* call = nullptr;
    size_t at = arg.pos;
    if (arg.call != nullptr) {
      call = arg.call.get();
      name = call->name;
      at = call->pos;
    } else {
      name = arg.scalar;
    }
    if (name == "uniform") {
      dist->kind = DistDesc::Kind::kUniform;
      if (call != nullptr && !call->args.empty()) {
        return Fail(call->args[0].pos, "uniform takes no arguments");
      }
      return true;
    }
    if (name == "zipf" || name == "latest") {
      dist->kind = name == "zipf" ? DistDesc::Kind::kZipf
                                  : DistDesc::Kind::kLatest;
      dist->theta = 0.99;
      if (call != nullptr) {
        for (const Arg& a : call->args) {
          if (a.key.empty() || a.key == "theta") {
            if (!Number(a, "theta", &dist->theta)) return false;
          } else {
            return Fail(a.pos, "unknown " + name + " option '" + a.key +
                                   "' (theta)");
          }
        }
      }
      if (dist->theta < 0.0) return Fail(at, "theta must be >= 0");
      return true;
    }
    if (name == "hotspot") {
      dist->kind = DistDesc::Kind::kHotspot;
      dist->width = 0.05;
      dist->period = 100'000;
      dist->hot = 0.9;
      if (call != nullptr) {
        for (const Arg& a : call->args) {
          if (a.key == "width") {
            if (!Fraction(a, "width", &dist->width)) return false;
            if (dist->width <= 0.0) {
              return Fail(a.pos, "width must be > 0");
            }
          } else if (a.key == "period") {
            if (!Count(a, "period", &dist->period)) return false;
            if (dist->period == 0) {
              return Fail(a.pos, "period must be > 0");
            }
          } else if (a.key == "hot") {
            if (!Fraction(a, "hot", &dist->hot)) return false;
          } else {
            return Fail(a.pos, a.key.empty()
                                   ? std::string("hotspot arguments must be "
                                                 "keyed (width=, period=, "
                                                 "hot=)")
                                   : "unknown hotspot option '" + a.key +
                                         "' (width, period, hot)");
          }
        }
      }
      return true;
    }
    return Fail(at, "unknown distribution \"" + name +
                        "\" (uniform, zipf, latest, hotspot)");
  }

  /// Shared handling for dist=/zipf= arguments; returns true when the
  /// argument was consumed as a distribution.
  bool MaybeDistArg(const Arg& arg, DistDesc* dist, bool* consumed) {
    *consumed = false;
    if (arg.key == "dist" || (arg.key.empty() &&
                              (arg.call != nullptr || arg.scalar == "uniform" ||
                               arg.scalar == "zipf" || arg.scalar == "latest" ||
                               arg.scalar == "hotspot"))) {
      *consumed = true;
      return CompileDist(arg, dist);
    }
    if (arg.key == "zipf") {
      *consumed = true;
      dist->kind = DistDesc::Kind::kZipf;
      return Number(arg, "zipf theta", &dist->theta) &&
             (dist->theta >= 0.0 || Fail(arg.pos, "theta must be >= 0"));
    }
    return true;
  }

  bool Compile(const Call& call, WorkloadDesc* desc) {
    const std::string& name = call.name;
    if (name == "read") {
      desc->family = WorkloadDesc::Family::kRead;
      desc->dist.kind = DistDesc::Kind::kUniform;
      for (const Arg& arg : call.args) {
        bool consumed = false;
        if (!MaybeDistArg(arg, &desc->dist, &consumed)) return false;
        if (consumed) continue;
        return Fail(arg.pos, "unknown read option '" +
                                 (arg.key.empty() ? arg.scalar : arg.key) +
                                 "' (dist, zipf)");
      }
      return true;
    }
    if (name == "mixed") {
      desc->family = WorkloadDesc::Family::kMixed;
      desc->dist.kind = DistDesc::Kind::kUniform;
      desc->write_ratio = 0.2;
      for (const Arg& arg : call.args) {
        bool consumed = false;
        if (!MaybeDistArg(arg, &desc->dist, &consumed)) return false;
        if (consumed) continue;
        if (arg.key == "w" || arg.key.empty()) {
          if (!Fraction(arg, "write ratio w", &desc->write_ratio)) {
            return false;
          }
        } else {
          return Fail(arg.pos,
                      "unknown mixed option '" + arg.key + "' (w, dist)");
        }
      }
      return true;
    }
    if (name == "insdel") {
      desc->family = WorkloadDesc::Family::kInsDel;
      desc->update_ratio = 0.5;
      for (const Arg& arg : call.args) {
        if (arg.key == "u" || arg.key.empty()) {
          if (!Fraction(arg, "update ratio u", &desc->update_ratio)) {
            return false;
          }
        } else {
          return Fail(arg.pos, "unknown insdel option '" + arg.key + "' (u)");
        }
      }
      return true;
    }
    if (name == "batched") {
      desc->family = WorkloadDesc::Family::kBatched;
      for (const Arg& arg : call.args) {
        uint64_t v = 0;
        if (arg.key == "pool") {
          if (!Count(arg, "pool", &v)) return false;
          desc->batched_pool = static_cast<size_t>(v);
        } else if (arg.key == "queries") {
          if (!Count(arg, "queries", &v)) return false;
          desc->batched_queries = static_cast<size_t>(v);
        } else {
          return Fail(arg.pos, "unknown batched option '" +
                                   (arg.key.empty() ? arg.scalar : arg.key) +
                                   "' (pool, queries)");
        }
      }
      return true;
    }
    if (name.size() == 6 && name.rfind("ycsb-", 0) == 0 && name[5] >= 'a' &&
        name[5] <= 'f') {
      desc->family = WorkloadDesc::Family::kYcsb;
      desc->ycsb_mix = name[5];
      desc->scan_max = 100;
      desc->mix = YcsbMix{};
      desc->dist.kind = DistDesc::Kind::kZipf;
      desc->dist.theta = 0.99;
      switch (desc->ycsb_mix) {
        case 'a': desc->mix.read = 0.5; desc->mix.update = 0.5; break;
        case 'b': desc->mix.read = 0.95; desc->mix.update = 0.05; break;
        case 'c': desc->mix.read = 1.0; break;
        case 'd':
          desc->mix.read = 0.95;
          desc->mix.insert = 0.05;
          desc->dist.kind = DistDesc::Kind::kLatest;
          break;
        case 'e': desc->mix.scan = 0.95; desc->mix.insert = 0.05; break;
        case 'f': desc->mix.read = 0.5; desc->mix.rmw = 0.5; break;
      }
      for (const Arg& arg : call.args) {
        bool consumed = false;
        if (!MaybeDistArg(arg, &desc->dist, &consumed)) return false;
        if (consumed) continue;
        if (arg.key == "scan") {
          uint64_t v = 0;
          if (!Count(arg, "scan", &v)) return false;
          if (v == 0) return Fail(arg.pos, "scan must be > 0");
          desc->scan_max = static_cast<size_t>(v);
        } else {
          return Fail(arg.pos, "unknown " + name + " option '" +
                                   (arg.key.empty() ? arg.scalar : arg.key) +
                                   "' (dist, zipf, scan)");
        }
      }
      return true;
    }
    return Fail(call.pos,
                "unknown workload \"" + name +
                    "\" (read, mixed, insdel, batched, ycsb-a..ycsb-f)");
  }
};

std::unique_ptr<KeyChooser> MakeChooser(const DistDesc& dist, size_t n,
                                        Rng& rng) {
  switch (dist.kind) {
    case DistDesc::Kind::kUniform:
      return std::make_unique<UniformChooser>();
    case DistDesc::Kind::kZipf:
      // Seed word drawn before any sampling (the golden draw order).
      return std::make_unique<ZipfChooser>(n, dist.theta, rng.Next());
    case DistDesc::Kind::kLatest:
      return std::make_unique<LatestChooser>(n, dist.theta, rng.Next());
    case DistDesc::Kind::kHotspot:
      return std::make_unique<HotspotChooser>(dist.width, dist.period,
                                              dist.hot);
  }
  return std::make_unique<UniformChooser>();
}

}  // namespace

std::string WorkloadSpecError::Render() const {
  return "workload spec error at position " + std::to_string(pos) + ": " +
         message;
}

std::string DistDesc::Canonical() const {
  switch (kind) {
    case Kind::kUniform:
      return "uniform";
    case Kind::kZipf:
      return "zipf(theta=" + FormatNumber(theta) + ")";
    case Kind::kLatest:
      return "latest(theta=" + FormatNumber(theta) + ")";
    case Kind::kHotspot:
      return "hotspot(width=" + FormatNumber(width) +
             ",period=" + std::to_string(period) +
             ",hot=" + FormatNumber(hot) + ")";
  }
  return "uniform";
}

bool WorkloadDesc::has_writes() const {
  switch (family) {
    case Family::kRead:
      return false;
    case Family::kMixed:
      return write_ratio > 0.0;
    case Family::kInsDel:
    case Family::kBatched:
      return true;
    case Family::kYcsb:
      return mix.update > 0.0 || mix.insert > 0.0 || mix.rmw > 0.0;
  }
  return true;
}

std::string WorkloadDesc::Canonical() const {
  switch (family) {
    case Family::kRead:
      return "read(dist=" + dist.Canonical() + ")";
    case Family::kMixed:
      return "mixed(w=" + FormatNumber(write_ratio) +
             ",dist=" + dist.Canonical() + ")";
    case Family::kInsDel:
      return "insdel(u=" + FormatNumber(update_ratio) + ")";
    case Family::kBatched:
      return "batched(pool=" + std::to_string(batched_pool) +
             ",queries=" + std::to_string(batched_queries) + ")";
    case Family::kYcsb: {
      std::string out = "ycsb-";
      out += ycsb_mix;
      out += "(dist=" + dist.Canonical();
      if (mix.scan > 0.0) out += ",scan=" + std::to_string(scan_max);
      out += ")";
      return out;
    }
  }
  return "read(dist=uniform)";
}

bool ParseWorkloadSpec(std::string_view spec, WorkloadDesc* desc,
                       WorkloadSpecError* error) {
  Parser parser{spec, 0, error};
  std::unique_ptr<Call> call = parser.ParseCall();
  if (call == nullptr) return false;
  if (parser.pos != spec.size()) {
    parser.Fail(parser.pos, std::string("unexpected character '") +
                                spec[parser.pos] + "' after workload spec");
    return false;
  }
  WorkloadDesc out;
  Compiler compiler{error};
  if (!compiler.Compile(*call, &out)) return false;
  *desc = std::move(out);
  return true;
}

std::string WorkloadGrammarHelp() {
  return
      "workload spec grammar:\n"
      "  read[(dist=D | zipf=T)]      point lookups of present keys\n"
      "  mixed(w=W[,dist=D])          paper 10-op read/write cycle "
      "(Fig. 11)\n"
      "  insdel(u=U)                  insert/delete stream (Fig. 12)\n"
      "  batched(pool=P,queries=Q)    Fig. 13 phased insert/query/delete\n"
      "  ycsb-a..ycsb-f[(zipf=T | dist=D[,scan=N])]\n"
      "                               YCSB core mixes: a 50/50 r/u, b 95/5 "
      "r/u,\n"
      "                               c reads, d 95/5 r/ins (latest), e 95/5 "
      "scan/ins,\n"
      "                               f 50/50 r/rmw\n"
      "distributions D:\n"
      "  uniform | zipf[(theta=T)] | latest[(theta=T)]\n"
      "  hotspot(width=F,period=P[,hot=H])   drifting hot range: F of the "
      "rank\n"
      "                               space takes H of traffic, advancing "
      "one\n"
      "                               window width every P ops\n"
      "numbers accept suffixes: 5% = 0.05, 20k = 20000, 1M = 1000000\n"
      "examples: ycsb-a(zipf=0.99)   "
      "mixed(w=0.2,dist=hotspot(width=5%,period=1M))\n";
}

WorkloadDesc ParseWorkloadOrDie(std::string_view spec) {
  WorkloadDesc desc;
  WorkloadSpecError error;
  if (!ParseWorkloadSpec(spec, &desc, &error)) {
    std::fprintf(stderr, "ERROR: bad workload spec \"%.*s\": %s\n%s",
                 static_cast<int>(spec.size()), spec.data(),
                 error.Render().c_str(), WorkloadGrammarHelp().c_str());
    std::exit(2);
  }
  return desc;
}

std::unique_ptr<OpSource> MakeOpSource(const WorkloadDesc& desc,
                                       WorkloadGenerator& gen,
                                       std::span<const Key> loaded) {
  LiveKeySet& live = gen.live();
  Rng& rng = gen.rng();
  switch (desc.family) {
    case WorkloadDesc::Family::kRead:
      return std::make_unique<ReadSource>(
          &live, &rng, MakeChooser(desc.dist, live.size(), rng));
    case WorkloadDesc::Family::kMixed:
      return std::make_unique<PaperMixedSource>(
          &live, &rng, desc.write_ratio,
          MakeChooser(desc.dist, live.size(), rng));
    case WorkloadDesc::Family::kInsDel:
      return std::make_unique<InsertDeleteSource>(&live, &rng,
                                                  desc.update_ratio);
    case WorkloadDesc::Family::kYcsb:
      return std::make_unique<YcsbSource>(
          &live, &rng, desc.mix, MakeChooser(desc.dist, live.size(), rng),
          desc.scan_max, loaded);
    case WorkloadDesc::Family::kBatched:
      return nullptr;  // phased: MaterializeWorkloadPhases
  }
  return nullptr;
}

std::vector<Operation> MaterializeWorkload(const WorkloadDesc& desc,
                                           std::span<const Key> loaded,
                                           uint64_t seed, size_t num_ops) {
  if (desc.family == WorkloadDesc::Family::kBatched) {
    // Flattened phase stream (callers that want per-phase timing use
    // MaterializeWorkloadPhases instead).
    std::vector<Operation> ops;
    for (const WorkloadPhase& phase : MaterializeWorkloadPhases(
             desc, loaded, seed, loaded.size() / 2, num_ops / 8)) {
      ops.insert(ops.end(), phase.ops.begin(), phase.ops.end());
    }
    return ops;
  }
  WorkloadGenerator gen(loaded, seed);
  if (desc.family == WorkloadDesc::Family::kRead && gen.live().empty()) {
    return {};
  }
  std::unique_ptr<OpSource> source = MakeOpSource(desc, gen, loaded);
  return Drain(*source, num_ops);
}

std::vector<WorkloadPhase> MaterializeWorkloadPhases(
    const WorkloadDesc& desc, std::span<const Key> loaded, uint64_t seed,
    size_t default_pool, size_t default_queries) {
  LiveKeySet live(loaded);
  Rng rng(seed);
  const size_t pool =
      desc.batched_pool > 0 ? desc.batched_pool : default_pool;
  const size_t queries =
      desc.batched_queries > 0 ? desc.batched_queries : default_queries;
  const auto query_phase = [&](const std::string& name) {
    WorkloadPhase q;
    q.name = name;
    for (size_t i = 0; i < queries; ++i) {
      const size_t rank = rng.NextBounded(live.size());
      q.ops.push_back({OpType::kLookup, live.KeyAt(rank), 0});
    }
    return q;
  };

  std::vector<WorkloadPhase> phases;
  std::vector<Key> inserted;
  inserted.reserve(pool);
  for (int batch = 1; batch <= 4; ++batch) {
    WorkloadPhase ins;
    ins.name = "insert_q" + std::to_string(batch);
    for (size_t i = 0; i < pool / 4; ++i) {
      const Key k = live.InsertFresh(rng);
      inserted.push_back(k);
      ins.ops.push_back({OpType::kInsert, k, PayloadFor(k)});
    }
    phases.push_back(std::move(ins));
    phases.push_back(
        query_phase("query_after_insert_q" + std::to_string(batch)));
  }
  for (int batch = 1; batch <= 4; ++batch) {
    WorkloadPhase del;
    del.name = "delete_q" + std::to_string(batch);
    for (size_t i = 0; i < pool / 4 && !inserted.empty(); ++i) {
      const size_t idx = rng.NextBounded(inserted.size());
      const Key k = inserted[idx];
      inserted[idx] = inserted.back();
      inserted.pop_back();
      if (live.RemoveKey(k)) del.ops.push_back({OpType::kErase, k, 0});
    }
    phases.push_back(std::move(del));
    phases.push_back(
        query_phase("query_after_delete_q" + std::to_string(batch)));
  }
  return phases;
}

}  // namespace chameleon
