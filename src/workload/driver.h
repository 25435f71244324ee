#ifndef CHAMELEON_WORKLOAD_DRIVER_H_
#define CHAMELEON_WORKLOAD_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/api/kv_index.h"
#include "src/obs/latency_histogram.h"
#include "src/workload/op.h"

namespace chameleon {

/// Options for the closed-loop replay driver.
struct ReplayOptions {
  /// Foreground replay threads R. The operation stream is partitioned
  /// into R contiguous chunks replayed concurrently, each thread
  /// recording into its own LatencyHistogram (merged into the caller's
  /// at the end). R = 1 runs the exact single-threaded replay loops the
  /// bench harnesses have always used, so historical BENCH numbers stay
  /// comparable.
  ///
  /// Concurrency contract: the driver adds no synchronization around the
  /// index. R > 1 is valid for read-only streams against any index whose
  /// Lookup path tolerates concurrent readers (all indexes here:
  /// lookups are const; ChameleonIndex additionally takes Query-Locks
  /// while locks are enabled). For streams containing writes, R > 1
  /// requires the index to support concurrent writes: the driver calls
  /// EnableConcurrentWrites() and partitions the *whole* measured
  /// stream by key ownership (thread t owns every op whose key % R ==
  /// t) instead of contiguous chunks — per-key operation order is
  /// preserved, so the final index state is bit-identical to a serial
  /// replay regardless of interleaving (the oracle-checking invariant).
  /// When the index declines, Replay throws std::invalid_argument naming
  /// it, before any operation (warm-up included) has run.
  size_t threads = 1;
  /// Lookup batching: maximal runs of consecutive kLookup ops are fed
  /// through KvIndex::LookupBatch in groups of `batch` (1 = per-key
  /// Lookup). Writes always execute one at a time, in stream order.
  size_t batch = 1;
  /// Leading operations replayed before measurement starts: they are
  /// applied to the index (warming caches and populating keys the rest
  /// of the stream depends on) but excluded from all timing, histogram,
  /// and miss accounting. Clamped to the stream length.
  size_t warmup = 0;
};

/// Result of one replay. busy_ns sums each thread's replay time (so
/// MeanNs() is the per-operation cost a client observes), while wall_ns
/// is the elapsed time of the whole measured replay (so ThroughputMops()
/// reflects the aggregate rate R threads actually achieved).
struct ReplayResult {
  size_t ops = 0;     // measured operations (warmup excluded)
  size_t misses = 0;  // failed lookups/inserts/erases
  int64_t busy_ns = 0;
  int64_t wall_ns = 0;

  double MeanNs() const {
    return ops > 0 ? static_cast<double>(busy_ns) / static_cast<double>(ops)
                   : 0.0;
  }
  double ThroughputMops() const {
    return wall_ns > 0 ? static_cast<double>(ops) * 1e3 /
                             static_cast<double>(wall_ns)
                       : 0.0;
  }
};

/// Replays `ops` against `index` on `options.threads` closed-loop
/// threads and returns the merged result. Lookups of absent keys,
/// duplicate inserts, and erases of absent keys count as misses (a
/// warning is printed when any occur — the workload generators emit
/// only valid streams, so misses indicate a broken index). kUpdate
/// executes as erase + reinsert of the same key (KvIndex has no
/// in-place update), timed as one operation and missing if either half
/// fails; kScan runs RangeScan(key, Key(value)) and misses when the
/// range comes back empty.
///
/// With `hist` non-null every operation is timed individually into the
/// histogram (per-batch for batched lookups, attributing the mean to
/// each member); with hist == nullptr each thread's whole chunk is
/// timed with two clock reads. In the R = 1 / warmup = 0 configuration
/// both modes reproduce the bench harnesses' historical single-threaded
/// replay loops exactly.
ReplayResult Replay(KvIndex* index, std::span<const Operation> ops,
                    const ReplayOptions& options,
                    obs::LatencyHistogram* hist = nullptr);

/// Options for the open-loop (fixed arrival rate) driver.
struct OpenLoopOptions {
  /// Target arrival rate in operations per second. Arrival i is
  /// *scheduled* at t0 + i/rate regardless of how the index keeps up;
  /// values < 1 clamp to 1.
  double rate_ops_per_sec = 100'000.0;
  /// Leading operations executed closed-loop before the pacing clock
  /// starts: applied to the index, excluded from all accounting.
  /// Clamped to the stream length.
  size_t warmup = 0;
};

/// Result of one open-loop run. The headline `latency` histogram is
/// coordinated-omission-safe: each sample is completion_time −
/// *intended* arrival time (t0 + i/rate), never completion − start. A
/// stalled index therefore charges its stall to every operation that
/// was scheduled to arrive during the stall — the queueing delay a
/// real open-loop client would observe — instead of silently thinning
/// the sample stream the way a closed-loop (or start-time-measured)
/// harness does.
struct OpenLoopResult {
  size_t ops = 0;
  size_t misses = 0;
  int64_t wall_ns = 0;
  double target_rate = 0.0;  // ops/sec requested
  /// Deepest arrival backlog observed: max over ops of how many
  /// scheduled arrivals (including this one) were still unserved at its
  /// completion. 1 = the driver kept up perfectly.
  size_t max_backlog = 1;
  /// Max of completion − intended arrival, i.e. the worst queueing +
  /// service delay in the run.
  int64_t max_lag_ns = 0;

  /// Completion − intended arrival, all ops (the CO-safe headline).
  obs::LatencyHistogram latency;
  /// Completion − intended arrival, split per op type.
  obs::LatencyHistogram latency_by_type[kNumOpTypes];
  /// Completion − dispatch (pure service time, for comparison; always
  /// <= the recorded latency of the same op).
  obs::LatencyHistogram service;

  double AchievedRate() const {
    return wall_ns > 0 ? static_cast<double>(ops) * 1e9 /
                             static_cast<double>(wall_ns)
                       : 0.0;
  }
};

/// Runs `ops` against `index` on one dispatcher thread at the target
/// arrival rate, with the same per-op semantics as Replay.
/// Single-dispatcher is a deliberate parity constraint (ROADMAP: 1-core
/// comparisons): when the index is slower than the arrival interval
/// the backlog grows and the CO-safe histogram shows it.
OpenLoopResult RunOpenLoop(KvIndex* index, std::span<const Operation> ops,
                           const OpenLoopOptions& options);

}  // namespace chameleon

#endif  // CHAMELEON_WORKLOAD_DRIVER_H_
