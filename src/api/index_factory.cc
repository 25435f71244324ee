#include "src/api/index_factory.h"

#include <mutex>

#include "src/api/index_spec.h"
#include "src/baselines/alex/alex.h"
#include "src/baselines/btree/btree.h"
#include "src/baselines/dic/dic.h"
#include "src/baselines/dili/dili.h"
#include "src/baselines/finedex/finedex.h"
#include "src/baselines/lipp/lipp.h"
#include "src/baselines/pgm/pgm.h"
#include "src/baselines/radixspline/radix_spline.h"
#include "src/core/chameleon_index.h"
#include "src/engine/sharded_index.h"
#include "src/obs/stats.h"
#include "src/storage/durable_index.h"
#include "src/tiered/tiered_index.h"

namespace chameleon {

std::vector<std::string> AllIndexNames() {
  return {"B+Tree", "DIC",     "RS",   "PGM",   "ALEX",
          "LIPP",   "DILI",    "FINEdex", "ChaB", "ChaDA", "Chameleon"};
}

std::vector<std::string> UpdatableIndexNames() {
  return {"B+Tree", "PGM", "ALEX", "LIPP", "DILI", "FINEdex", "Chameleon"};
}

namespace {

/// The base-index table: plain names only; all composition lives in the
/// decorator registry (index_spec.h).
std::unique_ptr<KvIndex> MakeBaseIndex(std::string_view name) {
  if (name == "B+Tree") return std::make_unique<BPlusTree>();
  if (name == "DIC") return std::make_unique<DicIndex>();
  if (name == "RS") return std::make_unique<RadixSpline>();
  if (name == "PGM") return std::make_unique<PgmIndex>();
  if (name == "ALEX") return std::make_unique<AlexIndex>();
  if (name == "LIPP") return std::make_unique<LippIndex>();
  if (name == "DILI") return std::make_unique<DiliIndex>();
  if (name == "FINEdex") return std::make_unique<FinedexIndex>();
  if (name == "ChaB") {
    ChameleonConfig config;
    config.mode = ChameleonMode::kEbhOnly;
    return std::make_unique<ChameleonIndex>(config);
  }
  if (name == "ChaDA") {
    ChameleonConfig config;
    config.mode = ChameleonMode::kDare;
    return std::make_unique<ChameleonIndex>(config);
  }
  if (name == "Chameleon" || name == "ChaDATS") {
    ChameleonConfig config;
    config.mode = ChameleonMode::kFull;
    return std::make_unique<ChameleonIndex>(config);
  }
  return nullptr;
}

std::string JoinedBaseNames() {
  std::string joined;
  for (const std::string& name : AllIndexNames()) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

/// The count rule every adapter element obeys, whether it is built or
/// only canonicalized: a count in [1, kMaxShards] exactly when the
/// adapter takes one (only Sharded does).
bool CheckAdapterCount(const SpecNode& node, const DecoratorInfo& info,
                       SpecError* error) {
  if (info.wants_count && (!node.has_count || node.count == 0)) {
    error->pos = node.pos;
    error->message = "adapter '" + node.name +
                     "' needs a shard count >= 1 (e.g. " + node.name + "4)";
    return false;
  }
  if (info.wants_count && node.count > kMaxShards) {
    error->pos = node.pos + node.name.size();
    error->message = "shard count " + std::to_string(node.count) +
                     " exceeds the ceiling of " + std::to_string(kMaxShards);
    return false;
  }
  if (!info.wants_count && node.has_count) {
    error->pos = node.pos;
    error->message = "adapter '" + node.name + "' does not take a count suffix";
    return false;
  }
  return true;
}

std::string JoinedDecoratorNames() {
  std::string joined;
  for (const std::string& usage : IndexDecoratorUsage()) {
    const size_t cut = usage.find_first_of(" (<");
    if (!joined.empty()) joined += ", ";
    joined += usage.substr(0, cut);
  }
  return joined;
}

}  // namespace

void EnsureBuiltinIndexDecorators() {
  static std::once_flag once;
  // Registration lives with each adapter's implementation (engine /
  // storage layer); the lazy call_once sidesteps the static-initializer
  // ordering and linker dead-stripping hazards of self-registering
  // translation units in a static library.
  std::call_once(once, [] {
    RegisterShardedDecorator();
    RegisterDurableDecorator();
    RegisterTieredDecorator();
  });
}

std::unique_ptr<KvIndex> BuildIndexSpec(const SpecNode& node,
                                        const SpecBuildContext& ctx,
                                        SpecError* error) {
  EnsureBuiltinIndexDecorators();
  DecoratorInfo info;
  if (GetIndexDecorator(node.name, &info)) {
    if (!CheckAdapterCount(node, info, error)) return nullptr;
    if (node.inner == nullptr) {
      error->pos = node.pos;
      error->message = "adapter '" + node.name +
                       "' needs an inner index, e.g. \"" + node.Canonical() +
                       ":Chameleon\"";
      return nullptr;
    }
    std::unique_ptr<KvIndex> built = info.builder(node, ctx, error);
    if (built != nullptr) CHAMELEON_STAT_INC(kIndexesCreated);
    return built;
  }

  // Not an adapter: must be a plain base-index leaf.
  if (node.inner != nullptr) {
    error->pos = node.pos;
    error->message = "'" + node.name +
                     "' is not a registered adapter (adapters: " +
                     JoinedDecoratorNames() +
                     "); only adapters can wrap an inner spec";
    return nullptr;
  }
  if (!node.options.empty()) {
    error->pos = node.options.front().pos;
    error->message = "index '" + node.name + "' takes no (...) options";
    return nullptr;
  }
  std::unique_ptr<KvIndex> base = MakeBaseIndex(node.name);
  if (base == nullptr) {
    error->pos = node.pos;
    error->message = "unknown index '" + node.name +
                     "'; valid names: " + JoinedBaseNames() +
                     " (alias: ChaDATS = Chameleon)";
    return nullptr;
  }
  CHAMELEON_STAT_INC(kIndexesCreated);
  return base;
}

std::unique_ptr<KvIndex> MakeIndex(std::string_view spec, std::string* error) {
  SpecError spec_error;
  std::unique_ptr<KvIndex> index;
  std::unique_ptr<SpecNode> node = ParseIndexSpec(spec, &spec_error);
  if (node != nullptr) {
    index = BuildIndexSpec(*node, SpecBuildContext{}, &spec_error);
  }
  if (index == nullptr && error != nullptr) *error = spec_error.Render();
  return index;
}

std::unique_ptr<KvIndex> MakeIndex(std::string_view spec) {
  return MakeIndex(spec, nullptr);
}

std::string CanonicalIndexSpec(std::string_view spec, std::string* error) {
  SpecError spec_error;
  std::unique_ptr<SpecNode> node = ParseIndexSpec(spec, &spec_error);
  if (node == nullptr) {
    if (error != nullptr) *error = spec_error.Render();
    return "";
  }
  SpecNode& leaf = node->leaf();
  if (leaf.name == "ChaDATS") leaf.name = "Chameleon";
  return node->Canonical();
}

std::string CanonicalAdapterStack(std::string_view stack, std::string* error) {
  SpecError spec_error;
  std::unique_ptr<SpecNode> node = ParseIndexSpec(stack, &spec_error);
  bool ok = node != nullptr;
  for (const SpecNode* n = node.get(); ok && n != nullptr; n = n->inner.get()) {
    DecoratorInfo info;
    ok = GetIndexDecorator(n->name, &info);
    if (!ok) {
      spec_error.pos = n->pos;
      spec_error.message =
          "'" + n->name + "' is not a registered adapter (adapters: " +
          JoinedDecoratorNames() + "); --spec takes an adapter-only stack";
    }
    ok = ok && CheckAdapterCount(*n, info, &spec_error);
  }
  if (!ok && error != nullptr) *error = spec_error.Render();
  return ok ? node->Canonical() : "";
}

std::string IndexSpecGrammarHelp() {
  EnsureBuiltinIndexDecorators();
  std::string help;
  help += "index spec grammar: <adapter>:...:<index>, adapters nest in any "
          "order but Durable below Disk\n";
  help += "  adapters:\n";
  for (const std::string& usage : IndexDecoratorUsage()) {
    help += "    " + usage + "\n";
  }
  help += "  indexes: " + JoinedBaseNames() + " (alias: ChaDATS = Chameleon)\n";
  help += "  example: Sharded4:Durable(/tmp/d,fsync=everyN,n=64):Chameleon\n";
  return help;
}

}  // namespace chameleon
