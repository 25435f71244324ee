#include "src/api/index_spec.h"

#include <map>
#include <mutex>
#include <utility>

namespace chameleon {
namespace {

struct Registry {
  std::mutex mu;
  std::map<std::string, DecoratorInfo, std::less<>> decorators;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

/// Turns one parsed call into a chain element: splits a registered
/// adapter's count suffix off its name ("Sharded4" -> Sharded, 4) and
/// keeps the scalar arguments as options. Index specs have no nested
/// calls.
std::unique_ptr<SpecNode> ToNode(SpecCall call, SpecError* error) {
  auto node = std::make_unique<SpecNode>();
  node->pos = call.pos;
  node->name = std::move(call.name);
  // Only when the alpha prefix is a registered adapter that wants a
  // count, so base names ending in digits stay whole tokens.
  if (!GetIndexDecorator(node->name)) {
    // npos + 1 == 0: an all-digit name has no prefix to split off.
    const size_t digits = node->name.find_last_not_of("0123456789") + 1;
    DecoratorInfo info;
    if (digits > 0 && digits < node->name.size() &&
        GetIndexDecorator(node->name.substr(0, digits), &info) &&
        info.wants_count) {
      if (!ReadSpecCount(std::string_view(node->name).substr(digits),
                         node->pos + digits, "count", &node->count, error)) {
        return nullptr;
      }
      node->has_count = true;
      node->name.resize(digits);
    }
  }
  for (SpecArg& arg : call.args) {
    if (arg.call != nullptr) {
      error->pos = arg.call->pos;
      error->message = "index spec options are plain values, not calls ('" +
                       arg.call->name + "(...)')";
      return nullptr;
    }
    node->options.push_back(
        SpecOption{std::move(arg.key), std::move(arg.scalar), arg.pos});
  }
  return node;
}

}  // namespace

std::string SpecNode::Canonical() const {
  std::string out = name;
  if (has_count) out += std::to_string(count);
  if (!options.empty()) {
    out += '(';
    for (size_t i = 0; i < options.size(); ++i) {
      if (i > 0) out += ',';
      if (!options[i].key.empty()) {
        out += options[i].key;
        out += '=';
      }
      out += options[i].value;
    }
    out += ')';
  }
  if (inner != nullptr) {
    out += ':';
    out += inner->Canonical();
  }
  return out;
}

bool ReadSpecDirectory(const SpecNode& node, std::string* dir,
                       SpecError* error) {
  const SpecOption* found = nullptr;
  for (const SpecOption& option : node.options) {
    if (!option.key.empty()) continue;
    if (found != nullptr) {
      error->pos = option.pos;
      error->message =
          node.name + " takes one positional argument (the directory)";
      return false;
    }
    found = &option;
  }
  if (found == nullptr) {
    error->pos = node.pos;
    error->message = node.name + " needs a directory: " + node.name +
                     "(<dir>):<spec>";
    return false;
  }
  *dir = found->value;
  return true;
}

void RegisterIndexDecorator(std::string name, DecoratorInfo info) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.decorators[std::move(name)] = std::move(info);
}

bool GetIndexDecorator(std::string_view name, DecoratorInfo* info) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  const auto it = registry.decorators.find(name);
  if (it == registry.decorators.end()) return false;
  if (info != nullptr) *info = it->second;
  return true;
}

std::vector<std::string> IndexDecoratorUsage() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<std::string> usage;
  usage.reserve(registry.decorators.size());
  for (const auto& [name, info] : registry.decorators) {
    usage.push_back(info.usage);
  }
  return usage;
}

std::unique_ptr<SpecNode> ParseIndexSpec(std::string_view spec,
                                         SpecError* error) {
  EnsureBuiltinIndexDecorators();
  std::unique_ptr<SpecNode> head;
  std::unique_ptr<SpecNode>* tail = &head;
  size_t pos = 0;
  while (true) {
    std::unique_ptr<SpecCall> call =
        ParseSpecCall(spec, &pos, "an index or adapter name", error);
    if (call == nullptr) return nullptr;
    *tail = ToNode(std::move(*call), error);
    if (*tail == nullptr) return nullptr;
    if (pos >= spec.size() || spec[pos] != ':') break;
    ++pos;
    tail = &(*tail)->inner;
  }
  if (pos != spec.size()) {
    error->pos = pos;
    error->message = std::string("unexpected character '") + spec[pos] +
                     "' after spec element";
    return nullptr;
  }
  return head;
}

}  // namespace chameleon
