#ifndef CHAMELEON_API_INDEX_FACTORY_H_
#define CHAMELEON_API_INDEX_FACTORY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/kv_index.h"

namespace chameleon {

/// Base-index names accepted by MakeIndex. "Chameleon" is the full
/// system (the paper's ChaDATS — MakeIndex also accepts "ChaDATS" as an
/// alias); "ChaB"/"ChaDA" are the paper's ablations (Table V).
std::vector<std::string> AllIndexNames();

/// Indexes that support efficient updates (the paper drops RS and DIC
/// from mixed-workload experiments; Sec. VI-C).
std::vector<std::string> UpdatableIndexNames();

/// Creates an index stack from a spec string and returns nullptr on any
/// error. A spec is a ':'-separated chain of deployment adapters ending
/// in a base-index name (see src/api/index_spec.h for the grammar):
///
///   "Chameleon"                                  the plain index
///   "Sharded4:Chameleon"                         engine-layer sharding
///   "Durable(/tmp/d,fsync=everyN):Chameleon"     WAL + snapshots
///   "Sharded4:Durable(/tmp/d):Chameleon"         four per-shard
///                                                WAL stacks under
///                                                /tmp/d/shard-<i>
///
/// Adapters nest in any order, except that Disk refuses a Durable layer
/// below it (tiered_index.h), and register themselves in the decorator
/// registry (index_spec.h), so new adapters extend the grammar without
/// touching this factory.
std::unique_ptr<KvIndex> MakeIndex(std::string_view spec);

/// MakeIndex with diagnostics: on failure fills `*error` (when
/// non-null) with a position-accurate message, e.g.
/// "index spec error at position 8: unclosed '(' in argument list".
std::unique_ptr<KvIndex> MakeIndex(std::string_view spec, std::string* error);

/// Canonicalizes a full spec: parses, normalizes the leaf alias
/// (ChaDATS -> Chameleon), and re-serializes without validating
/// adapter semantics beyond the grammar. Returns "" and fills `*error`
/// (when non-null) on parse failure.
std::string CanonicalIndexSpec(std::string_view spec, std::string* error);

/// Canonicalizes an adapter-only chain (every element must be a
/// registered adapter; the leaf may be one too) — the form bench
/// --spec=STACK takes before the swept index name is appended. Returns
/// "" and fills `*error` (when non-null) on failure.
std::string CanonicalAdapterStack(std::string_view stack, std::string* error);

/// Multi-line human-readable grammar summary: adapter usage lines from
/// the registry plus the valid base-index names (with the ChaDATS
/// alias). Benches print it after a spec error.
std::string IndexSpecGrammarHelp();

}  // namespace chameleon

#endif  // CHAMELEON_API_INDEX_FACTORY_H_
