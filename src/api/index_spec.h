#ifndef CHAMELEON_API_INDEX_SPEC_H_
#define CHAMELEON_API_INDEX_SPEC_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/kv_index.h"
#include "src/api/spec_grammar.h"

namespace chameleon {

// Composable index-stack specs. A spec is a ':'-separated chain of
// calls in the shared spec grammar (src/api/spec_grammar.h); every
// element but the last must be a registered deployment adapter
// (decorator), and the last names a base index:
//
//   spec    := element (":" spec)?
//   element := name count? args?           -- a grammar call whose
//                                             arguments are scalars
//   count   := digit+                      -- only on adapters that
//                                             take one (Sharded4)
//
// Examples:
//   Chameleon
//   Sharded4:Chameleon
//   Durable(/tmp/d,fsync=everyN,n=64):Chameleon
//   Sharded4:Durable(/tmp/d,fsync=always):Chameleon
//     -- four shards, each with its own WAL+snapshot stack rooted at
//        /tmp/d/shard-<i>
//
// Parsing is purely syntactic except for one registry consultation: a
// trailing digit run is split off as the element's count only when the
// remaining prefix names a registered adapter that wants one, so base
// names may legally end in digits. Semantic validation (unknown names,
// missing counts, bad option keys) happens when the parsed chain is
// built into an index; both layers report position-accurate errors.
// Numeric option values go through the grammar's number readers
// (ReadSpecCount and friends), so adapters share one suffix table.

/// One argument from an element's parenthesized list. Positional
/// arguments ("Durable(/tmp/d)") have an empty key.
struct SpecOption {
  std::string key;
  std::string value;
  /// Offset of the argument's first character in the original spec
  /// string (for error messages).
  size_t pos = 0;
};

/// One element of a parsed spec chain. The chain is singly linked
/// outermost-first: `Sharded4:Durable(d):Chameleon` parses to a
/// Sharded node whose `inner` is the Durable node whose `inner` is the
/// Chameleon leaf.
struct SpecNode {
  std::string name;
  bool has_count = false;
  size_t count = 0;
  std::vector<SpecOption> options;
  std::unique_ptr<SpecNode> inner;
  /// Offset of the element's first character in the original spec.
  size_t pos = 0;

  const SpecNode& leaf() const { return inner ? inner->leaf() : *this; }
  SpecNode& leaf() { return inner ? inner->leaf() : *this; }

  /// Re-serializes the chain rooted here into canonical spec text
  /// (exactly the grammar above, no whitespace).
  std::string Canonical() const;
};

/// Reads the one positional argument of a directory-rooted adapter
/// (Durable(<dir>), Disk(<dir>)) into `*dir`. Returns false and fills
/// `*error` when `node` has a second positional argument (at its
/// position) or none (at the node's).
bool ReadSpecDirectory(const SpecNode& node, std::string* dir,
                       SpecError* error);

/// Context threaded through a recursive stack build. Partitioning
/// adapters extend `dir_suffix` per child (ShardedIndex appends
/// "/shard-<i>"); directory-rooted adapters (Durable) append the suffix
/// to their configured root, which is how `Sharded4:Durable(d):X`
/// yields four independent stacks under d/shard-<i>.
struct SpecBuildContext {
  std::string dir_suffix;
};

/// Builds the index stack for one adapter node. `node.inner` is
/// non-null (checked generically before dispatch). On failure returns
/// nullptr and fills `*error` (never null).
using DecoratorBuilder = std::function<std::unique_ptr<KvIndex>(
    const SpecNode& node, const SpecBuildContext& ctx, SpecError* error)>;

struct DecoratorInfo {
  DecoratorBuilder builder;
  /// True when the adapter takes a digit-run count suffix (Sharded4).
  /// Enforced both ways: a count on a no-count adapter is an error, a
  /// missing/zero count on a counted adapter is an error.
  bool wants_count = false;
  /// One grammar/usage line for help text, e.g.
  /// "Sharded<N>:<spec>  range-partition across N shards".
  std::string usage;
};

/// Registers (or replaces) the adapter named `name`. Built-in adapters
/// register lazily via EnsureBuiltinIndexDecorators(); future adapters
/// (tracing, caching) use the same entry point.
void RegisterIndexDecorator(std::string name, DecoratorInfo info);

/// True when `name` is a registered adapter. Copies the registration
/// into `*info` when non-null.
bool GetIndexDecorator(std::string_view name, DecoratorInfo* info = nullptr);

/// Registered adapter usage lines, sorted by adapter name.
std::vector<std::string> IndexDecoratorUsage();

/// Registers the built-in adapters (Sharded from src/engine/, Durable
/// from src/storage/). Idempotent and thread-safe; called internally by
/// ParseIndexSpec and the factory entry points, so direct callers never
/// need it.
void EnsureBuiltinIndexDecorators();

/// Parses `spec` into an element chain. Returns nullptr and fills
/// `*error` (never null) on syntax errors. Accepts adapter-only chains
/// (no base leaf) — MakeIndex rejects those later, but bench --spec
/// legitimately names a bare adapter stack to wrap around swept
/// indexes.
std::unique_ptr<SpecNode> ParseIndexSpec(std::string_view spec,
                                         SpecError* error);

/// Recursively builds the stack described by `node` (defined in
/// index_factory.cc, next to the base-index table). On failure returns
/// nullptr and fills `*error`.
std::unique_ptr<KvIndex> BuildIndexSpec(const SpecNode& node,
                                        const SpecBuildContext& ctx,
                                        SpecError* error);

}  // namespace chameleon

#endif  // CHAMELEON_API_INDEX_SPEC_H_
