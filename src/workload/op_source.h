#ifndef CHAMELEON_WORKLOAD_OP_SOURCE_H_
#define CHAMELEON_WORKLOAD_OP_SOURCE_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/workload/key_chooser.h"
#include "src/workload/live_key_set.h"
#include "src/workload/op.h"
#include "src/util/random.h"

namespace chameleon {

/// Pull-based operation stream. Sources are stateful iterators over an
/// (often unbounded) workload: `Next` fills `*op` and returns true, or
/// returns false when the source is exhausted (finite sources only —
/// the mix generators never are unless the live set empties).
class OpSource {
 public:
  virtual ~OpSource() = default;
  virtual bool Next(Operation* op) = 0;
};

/// Materializes up to `max_ops` operations (fewer if the source dries
/// up) — the bridge from streaming sources to the closed-loop Replay.
std::vector<Operation> Drain(OpSource& source, size_t max_ops);

/// Point lookups of present keys, target ranks drawn from `chooser`
/// (the `read` family).
class ReadSource final : public OpSource {
 public:
  ReadSource(LiveKeySet* live, Rng* rng, std::unique_ptr<KeyChooser> chooser)
      : live_(live), rng_(rng), chooser_(std::move(chooser)) {}
  bool Next(Operation* op) override;

 private:
  LiveKeySet* live_;
  Rng* rng_;
  std::unique_ptr<KeyChooser> chooser_;
};

/// The paper's mixed read/write interleaving (Sec. VI-A2): each cycle
/// of 10 operations performs round(10*(1-w)) reads followed by
/// alternating insertions and deletions (the `mixed` family). Reads
/// draw ranks from `chooser` (uniform is the paper's Fig. 11 stream; a
/// hotspot chooser turns this into the drifting-skew mixed workload).
class PaperMixedSource final : public OpSource {
 public:
  PaperMixedSource(LiveKeySet* live, Rng* rng, double write_ratio,
                   std::unique_ptr<KeyChooser> chooser);
  bool Next(Operation* op) override;

 private:
  LiveKeySet* live_;
  Rng* rng_;
  std::unique_ptr<KeyChooser> chooser_;
  int reads_per_cycle_;
  int writes_per_cycle_;
  int slot_ = 0;
};

/// Insert/delete stream with update ratio u = P(insert) (Fig. 12, the
/// `insdel` family).
class InsertDeleteSource final : public OpSource {
 public:
  InsertDeleteSource(LiveKeySet* live, Rng* rng, double update_ratio);
  bool Next(Operation* op) override;

 private:
  LiveKeySet* live_;
  Rng* rng_;
  double u_;
};

/// Operation-type proportions for a YCSB-style mix. Proportions are
/// cumulative-probability thresholds over one uniform draw per op; they
/// should sum to ~1 (the remainder falls to read-modify-write).
struct YcsbMix {
  double read = 0.0;
  double update = 0.0;
  double insert = 0.0;
  double scan = 0.0;
  double rmw = 0.0;
};

/// YCSB-style source: per operation one uniform draw selects the op
/// class by `mix`, read-class ops draw target ranks from `chooser`,
/// inserts use the shared fresh-key scheme, and scans are bounded by
/// rank distance over the *loaded* key snapshot (lo = snapshot[r],
/// hi = snapshot[min(r + len, n-1)], len uniform in [1, scan_max]) so
/// the emitted {kScan, lo, hi} op is self-contained. A read-modify-
/// write emits kLookup immediately and pends the kUpdate of the same
/// key for the next pull.
class YcsbSource final : public OpSource {
 public:
  YcsbSource(LiveKeySet* live, Rng* rng, const YcsbMix& mix,
             std::unique_ptr<KeyChooser> chooser, size_t scan_max,
             std::span<const Key> loaded);
  bool Next(Operation* op) override;

 private:
  LiveKeySet* live_;
  Rng* rng_;
  YcsbMix mix_;
  std::unique_ptr<KeyChooser> chooser_;
  size_t scan_max_;
  std::vector<Key> scan_keys_;  // loaded-order snapshot for scan bounds
  std::optional<Operation> pending_;
};

}  // namespace chameleon

#endif  // CHAMELEON_WORKLOAD_OP_SOURCE_H_
