#ifndef CHAMELEON_WORKLOAD_WORKLOAD_H_
#define CHAMELEON_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <span>

#include "src/util/common.h"
#include "src/util/random.h"
#include "src/workload/live_key_set.h"

namespace chameleon {

/// The state a workload stream draws from: the live key set of the index
/// being driven plus the RNG. Streams are named in the workload grammar
/// and built over it by MakeOpSource (workload_spec.h). Sources built in
/// turn over one generator chain: each continues from the live set the
/// previous one left, so a caller keeps one generator when e.g. reads
/// must hit the keys earlier inserts added. Streams are deterministic
/// for a fixed seed and valid when replayed in order against an index
/// bulk-loaded with `loaded`.
class WorkloadGenerator {
 public:
  /// `loaded` is the sorted key set the index is bulk-loaded with.
  WorkloadGenerator(std::span<const Key> loaded, uint64_t seed)
      : live_(loaded), rng_(seed) {}

  /// The keys currently present, and the RNG the sources draw from.
  LiveKeySet& live() { return live_; }
  Rng& rng() { return rng_; }

 private:
  LiveKeySet live_;
  Rng rng_;
};

}  // namespace chameleon

#endif  // CHAMELEON_WORKLOAD_WORKLOAD_H_
