#ifndef CHAMELEON_WORKLOAD_WORKLOAD_SPEC_H_
#define CHAMELEON_WORKLOAD_WORKLOAD_SPEC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/spec_grammar.h"
#include "src/workload/op.h"
#include "src/workload/op_source.h"
#include "src/workload/workload.h"

namespace chameleon {

// Composable workload specs — the one way every caller and --workload
// names an operation stream. A workload spec is one call in the shared
// spec grammar (src/api/spec_grammar.h), the grammar index specs use
// too, with nested calls as values: zipf(0.99),
// hotspot(width=5%,...). A registry-free compile step turns it into a
// semantic descriptor the OpSource factory consumes, and a canonical
// re-serialization every JSON blob echoes. Numbers go through the
// grammar's one number reader (5% = 0.05, 20k = 20000, 1M = 1000000);
// fractions must lie in [0, 1], counts are whole and unsigned.
//
// Workload families:
//   read[(dist=D | zipf=T)]        point lookups of present keys
//   mixed(w=W[,dist=D])            the paper's 10-op read/write cycle
//                                  (Fig. 11); reads drawn from D
//   insdel(u=U)                    insert/delete stream (Fig. 12)
//   batched(pool=P,queries=Q)      Fig. 13's phased insert/query/delete
//   ycsb-a .. ycsb-f [(zipf=T | dist=D [,scan=N])]
//                                  the standard YCSB core mixes:
//                                    a: 50/50 read/update, zipf
//                                    b: 95/5  read/update, zipf
//                                    c: 100   read, zipf
//                                    d: 95/5  read/insert, latest
//                                    e: 95/5  scan/insert, zipf
//                                       (scan length uniform 1..N)
//                                    f: 50/50 read/read-modify-write
//
// Distributions D:
//   uniform                        every live rank equally likely
//   zipf[(theta)] / zipf(theta=T)  rank-zipf, default theta 0.99
//   latest[(theta)]                zipf-shaped recency from the newest
//                                  insert (YCSB-D)
//   hotspot(width=F,period=P[,hot=H])
//                                  drifting hot range: a window of F of
//                                  the rank space takes H (default 0.9)
//                                  of the traffic and advances by its
//                                  own width every P operations
//
// Canonicalization fills every default in, so the echoed spec is fully
// self-describing: "ycsb-a" canonicalizes to
// "ycsb-a(dist=zipf(theta=0.99))".

/// A parse or compile failure: a SpecError (message and offset) that
/// renders as "workload spec error at position <pos>: <msg>".
struct WorkloadSpecError : SpecError {
  std::string Render() const;
};

/// Request-distribution descriptor (compiled form of D above).
struct DistDesc {
  enum class Kind { kUniform, kZipf, kLatest, kHotspot };
  Kind kind = Kind::kUniform;
  double theta = 0.99;        // zipf / latest
  double width = 0.05;        // hotspot: window as a fraction of ranks
  uint64_t period = 100'000;  // hotspot: ops per one-window drift step
  double hot = 0.9;           // hotspot: in-window pick probability

  std::string Canonical() const;
};

/// Compiled workload descriptor: the semantic form a spec string
/// resolves to, with every default made explicit.
struct WorkloadDesc {
  enum class Family { kRead, kMixed, kInsDel, kBatched, kYcsb };
  Family family = Family::kRead;

  DistDesc dist;

  // kMixed
  double write_ratio = 0.2;
  // kInsDel
  double update_ratio = 0.5;
  // kBatched (0 = the harness's defaults)
  size_t batched_pool = 0;
  size_t batched_queries = 0;
  // kYcsb
  char ycsb_mix = 'a';
  YcsbMix mix;
  size_t scan_max = 100;

  /// True when the stream mutates the index (drives the harnesses'
  /// concurrent-write capability gates).
  bool has_writes() const;

  /// Fully-resolved canonical spec text.
  std::string Canonical() const;
};

/// Parses and compiles `spec`. Returns false and fills `*error` (never
/// null) on syntax or semantic errors; `*desc` is untouched on failure.
bool ParseWorkloadSpec(std::string_view spec, WorkloadDesc* desc,
                       WorkloadSpecError* error);

/// The grammar/usage text harnesses print next to a bad --workload.
std::string WorkloadGrammarHelp();

/// ParseWorkloadSpec for specs that must be valid: on failure prints
/// the error plus the grammar to stderr and exits 2.
WorkloadDesc ParseWorkloadOrDie(std::string_view spec);

/// Builds the streaming source for `desc` over a generator's live set
/// and RNG. Draw order is fixed (distribution seeds are taken from
/// `gen.rng()` before any sampling), which the golden-stream hashes in
/// workload_test.cc pin. Sources built in turn over one generator
/// chain: each continues from the live set the previous one left.
/// kBatched has no single-stream source — use MaterializeWorkloadPhases.
std::unique_ptr<OpSource> MakeOpSource(const WorkloadDesc& desc,
                                       WorkloadGenerator& gen,
                                       std::span<const Key> loaded);

/// A one-shot stream: generator seeded with `seed` over `loaded`,
/// source built, `num_ops` drained.
std::vector<Operation> MaterializeWorkload(const WorkloadDesc& desc,
                                           std::span<const Key> loaded,
                                           uint64_t seed, size_t num_ops);

/// The kBatched counterpart, Fig. 13's 16 phases: `pool` fresh keys
/// inserted, then deleted, a quarter at a time, `queries` lookups after
/// each quarter. `pool` / `queries` are the desc's when non-zero.
std::vector<WorkloadPhase> MaterializeWorkloadPhases(
    const WorkloadDesc& desc, std::span<const Key> loaded, uint64_t seed,
    size_t default_pool, size_t default_queries);

}  // namespace chameleon

#endif  // CHAMELEON_WORKLOAD_WORKLOAD_SPEC_H_
