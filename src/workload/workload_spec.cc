#include "src/workload/workload_spec.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/api/spec_grammar.h"

namespace chameleon {
namespace {

std::string FormatNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// --- Compiler ---------------------------------------------------------------

struct Compiler {
  SpecError* error;

  bool Fail(size_t at, std::string message) {
    error->pos = at;
    error->message = std::move(message);
    return false;
  }

  // The grammar's typed readers over one argument. A nested call has
  // no scalar text, so it fails as "expected a number".
  bool Number(const SpecArg& a, const char* what, double* out) {
    return ReadSpecNumber(a.scalar, a.pos, what, out, error);
  }
  bool Fraction(const SpecArg& a, const char* what, double* out) {
    return ReadSpecFraction(a.scalar, a.pos, what, out, error);
  }
  bool Count(const SpecArg& a, const char* what, size_t* out) {
    return ReadSpecCount(a.scalar, a.pos, what, out, error);
  }
  bool PositiveCount(const SpecArg& a, const char* what, size_t* out) {
    return ReadSpecPositiveCount(a.scalar, a.pos, what, out, error);
  }

  bool CompileDist(const SpecArg& arg, DistDesc* dist) {
    // Value is either a bare name ("uniform") or a call ("zipf(0.99)").
    std::string name;
    const SpecCall* call = nullptr;
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
        for (const SpecArg& a : call->args) {
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
        for (const SpecArg& a : call->args) {
          if (a.key == "width") {
            if (!Fraction(a, "width", &dist->width)) return false;
            if (dist->width <= 0.0) {
              return Fail(a.pos, "width must be > 0");
            }
          } else if (a.key == "period") {
            size_t period = 0;
            if (!PositiveCount(a, "period", &period)) return false;
            dist->period = period;
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
  bool MaybeDistArg(const SpecArg& arg, DistDesc* dist, bool* consumed) {
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

  bool Compile(const SpecCall& call, WorkloadDesc* desc) {
    const std::string& name = call.name;
    if (name == "read") {
      desc->family = WorkloadDesc::Family::kRead;
      desc->dist.kind = DistDesc::Kind::kUniform;
      for (const SpecArg& arg : call.args) {
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
      for (const SpecArg& arg : call.args) {
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
      for (const SpecArg& arg : call.args) {
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
      for (const SpecArg& arg : call.args) {
        if (arg.key == "pool") {
          if (!Count(arg, "pool", &desc->batched_pool)) return false;
        } else if (arg.key == "queries") {
          if (!Count(arg, "queries", &desc->batched_queries)) return false;
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
      for (const SpecArg& arg : call.args) {
        bool consumed = false;
        if (!MaybeDistArg(arg, &desc->dist, &consumed)) return false;
        if (consumed) continue;
        if (arg.key == "scan") {
          if (!PositiveCount(arg, "scan", &desc->scan_max)) return false;
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
  size_t pos = 0;
  std::unique_ptr<SpecCall> call =
      ParseSpecCall(spec, &pos, "a workload name", error);
  if (call == nullptr) return false;
  if (pos != spec.size()) {
    error->pos = pos;
    error->message = std::string("unexpected character '") + spec[pos] +
                     "' after workload spec";
    return false;
  }
  WorkloadDesc out;
  if (!Compiler{error}.Compile(*call, &out)) return false;
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
