#ifndef CHAMELEON_CORE_CHAMELEON_INDEX_H_
#define CHAMELEON_CORE_CHAMELEON_INDEX_H_

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "src/api/kv_index.h"
#include "src/core/dare.h"
#include "src/core/ebh_leaf.h"
#include "src/core/interval_lock.h"
#include "src/core/tsmdp.h"
#include "src/util/periodic_worker.h"

namespace chameleon {

/// Which construction modules are active — the paper's ablation variants
/// (Sec. VI-B4, Table V).
enum class ChameleonMode {
  kEbhOnly,  ///< "ChaB":    EBH leaves, greedy fixed-fanout frame
  kDare,     ///< "ChaDA":   ChaB + DARE-optimized frame, plain EBH units
  kFull,     ///< "ChaDATS": ChaDA + TSMDP refinement of the lower levels
};

struct ChameleonConfig {
  ChameleonMode mode = ChameleonMode::kFull;
  double tau = 0.45;     // Theorem-1 collision-probability target
  double alpha = 131.0;  // EBH hash factor (Eq. 2)
  /// Adaptive alpha selection in EBH leaves (median-gap scaling +
  /// escalation); turn off to pin Eq. 2's literal alpha (ablation).
  bool adaptive_alpha = true;
  double w_time = 0.5;   // reward weights (paper Table IV)
  double w_mem = 0.5;
  size_t target_leaf_keys = 64;  // greedy leaf sizing (ChaB / heuristics)
  /// When a unit has accumulated inserts beyond this percentage of its
  /// built population, the retraining pass rebuilds it.
  size_t retrain_threshold_pct = 50;
  /// At most this many units are rebuilt per retraining pass (highest
  /// drift first); bounds how long foreground writes can stall on
  /// Retraining-Locks within one period.
  size_t max_retrains_per_pass = 16;
  /// Sec. V, Limitation (1): "when the number of updated data reaches a
  /// certain threshold, any learned index faces complete reconstruction
  /// ... our DARE is triggered to reconstruct the overall index". When
  /// cumulative updates exceed this percentage of the bulk-loaded
  /// population, the next update triggers a full DARE rebuild (only in
  /// single-threaded mode — with the retraining thread live, incremental
  /// unit rebuilds keep the structure fit instead). 0 disables.
  size_t full_rebuild_threshold_pct = 400;
  TsmdpConfig tsmdp;  // seeds/weights are overridden from this config
  DareConfig dare;
  uint64_t seed = 5;
};

/// Chameleon: the paper's learned index. Linear-model inner nodes
/// (Eq. 1 — exact interval partition, no secondary search) over Error
/// Bounded Hashing leaves, constructed by two cooperating RL agents
/// (DARE for the upper h-1 levels, TSMDP for the rest), with a
/// non-blocking background retraining thread synchronized by Interval
/// Locks on the h-th-level key intervals.
///
/// Thread model (Sec. V, extended for the sharded serving engine and
/// the multi-writer serving path — DESIGN.md §13): any number of
/// *reader* threads may issue Lookup/LookupBatch/RangeScan concurrently
/// with each other and with the retraining thread. Insert and Erase are
/// thin wrappers over one write routine (Write), which takes the
/// Writer-Lock (IntervalLock bit 30) on the one unit it mutates whenever
/// locks are on, applies the update through Apply, logs it while that
/// unit is being rebuilt, and does the size/update bookkeeping; the
/// retrainer's phase 3 replays the log through the same Apply. Locks
/// are on in two cases:
///
///  * Default (single-writer): at most one thread issues Insert/Erase,
///    never concurrently with readers. No interval locks are taken
///    unless the retrainer is live, so single-threaded operation pays
///    zero atomic RMWs on the query path.
///  * Multi-writer (after EnableConcurrentWrites()): any number of
///    threads may issue Insert/Erase concurrently with each other, with
///    readers, and with the retrainer. Writers on different h-level
///    units proceed in parallel; two writers (or a writer and a reader)
///    on the same unit serialize on its Writer-Lock. Global bookkeeping
///    (size_, updates_since_build_) is relaxed atomics. Concurrent
///    Insert/Erase of the *same key* from two threads is linearized by
///    the unit's writer lock; callers that need a deterministic final
///    state (the workload driver's oracle mode) partition keys across
///    writers instead.
///
/// Readers take the Query-Lock (shared) on the one interval they touch;
/// the retrainer takes the Retraining-Lock (exclusive) on the one
/// interval it rebuilds and swaps.
///
/// Why readers never observe a torn or stale subtree (the DESIGN.md §8
/// publication argument, enforced by tests/concurrent_read_test.cc
/// under TSan): the retrainer builds the replacement subtree entirely
/// aside, then swaps it in while holding the Retraining-Lock and
/// releases with a store(release) on the lock word. A reader's
/// Query-Lock acquisition is an acquire CAS on the same word that can
/// only succeed after that release store, so the CAS synchronizes-with
/// the release and the fully-built subtree (and everything the builder
/// wrote before the swap) is visible before the reader dereferences it.
/// Conversely the retrainer's exclusive CAS only succeeds once every
/// reader's release fetch_sub has drained the shared count, so it
/// observes all reader-side effects before mutating.
///
/// Whole-structure operations (BulkLoad, LoadFrom, SaveTo, Stats,
/// SizeBytes, total_shifts) walk or replace the tree without Interval
/// Locks. Each holds the retrainer's pause guard, which waits out an
/// in-flight pass and blocks new ones, so they are safe with a live
/// retrainer; only foreground writers must be quiesced by the caller.
class ChameleonIndex final : public KvIndex {
 public:
  ChameleonIndex();
  explicit ChameleonIndex(ChameleonConfig config);
  ~ChameleonIndex() override;

  ChameleonIndex(const ChameleonIndex&) = delete;
  ChameleonIndex& operator=(const ChameleonIndex&) = delete;

  void BulkLoad(std::span<const KeyValue> data) override;
  bool Lookup(Key key, Value* value) const override;
  /// Pipelined batched lookup: probes are processed in groups of ~8 — a
  /// first stage walks each key to its leaf, computes the EBH home slot
  /// and issues software prefetches for the clamped probe window's key
  /// lines plus the home value line, and a second stage finishes the
  /// (now cache-warm) probes through the dispatched SIMD window kernel.
  /// Bit-identical results to per-key Lookup; takes the same
  /// per-interval Query-Locks when the retrainer is live.
  void LookupBatch(std::span<const Key> keys, Value* values,
                   bool* found) const override;
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const override;
  /// Per-unit access heatmap: one entry per h-level unit, in key order.
  /// Safe concurrently with readers, the single foreground writer, and
  /// the retrainer (only immutable unit bounds and relaxed atomics are
  /// read); returns empty while a full structural (re)build holds
  /// heatmap_mu_ rather than stalling the sampler thread.
  obs::Heatmap HeatmapSnapshot() const override;
  /// Multi-writer capability (see the thread model above). Supported
  /// natively; EnableConcurrentWrites flips the index into the
  /// interval-locked write path and always returns true.
  bool SupportsConcurrentWrites() const override { return true; }
  bool EnableConcurrentWrites() override;
  /// Per-unit write-contention map: `writes` is the cumulative spin
  /// count writers burned waiting for this unit's Writer-Lock.
  obs::Heatmap WriteContentionSnapshot() const override;
  size_t size() const override {
    return size_.load(std::memory_order_relaxed);
  }
  size_t SizeBytes() const override;
  IndexStats Stats() const override;
  std::string_view Name() const override;

  // --- Retraining (Sec. V) --------------------------------------------------

  /// Starts the background retraining thread; it wakes every `interval`
  /// (paper: 10 s; tests use milliseconds) and runs one retraining pass.
  void StartRetrainer(std::chrono::milliseconds interval);
  void StopRetrainer();

  /// One synchronous retraining pass over all h-level units: rebuilds
  /// every unit whose update volume crossed the threshold, under its
  /// Retraining-Lock. Returns the number of units rebuilt. Safe to call
  /// concurrently with workload operations (that is its purpose).
  size_t RetrainOnce();

  /// Total units rebuilt since bulk load (Fig. 14 metric).
  size_t total_retrains() const { return total_retrains_.load(); }

  /// Full DARE-driven reconstructions since bulk load (Sec. V,
  /// Limitation 1).
  size_t total_full_rebuilds() const { return total_full_rebuilds_; }

  /// Total EBH displacement shifts across all leaves (Fig. 1(b) metric).
  size_t total_shifts() const;

  // --- Agents ---------------------------------------------------------------

  TsmdpAgent& tsmdp() { return *tsmdp_; }
  DareAgent& dare() { return *dare_; }
  const DareAgent& dare() const { return *dare_; }

  /// Workload-aware construction (the paper's query-distribution reward
  /// extension): supplies a sample of query keys; the next BulkLoad /
  /// retraining pass weights fanout decisions by this traffic.
  void SetQuerySample(std::vector<Key> query_keys);

  /// Persists the built structure at `f`'s current position: frame
  /// parameters, unit layout, TSMDP-chosen subtrees and EBH leaf
  /// contents (slot-exact, including each leaf's adapted hash factor),
  /// so reloading skips the RL construction entirely. Binary
  /// little-endian, versioned (core/serialize.cc); the storage layer
  /// embeds it inside checksummed snapshot files. A save that finds a
  /// live retrainer pauses it and counts save_retrainer_pauses.
  /// Returns false on I/O error.
  bool SaveTo(std::FILE* f) const;
  /// Restores a structure written by SaveTo, replacing the current one
  /// (the construction config still supplies the agents for future
  /// retraining). Returns false on I/O error, bad magic, or version
  /// mismatch.
  bool LoadFrom(std::FILE* f);

  /// Number of frame levels h = ceil(log_{2^10} |D|), clamped to >= 2
  /// (Sec. III-B); the level whose nodes carry interval locks.
  int frame_levels() const { return h_; }
  size_t num_units() const { return units_.size(); }

 private:
  /// A node in a unit's subtree (below the h-th level): either an inner
  /// partition (Eq. 1) over children, or an EBH leaf.
  struct SubNode {
    Key lk = 0, uk = 0;
    double slope = 0.0;  // fanout / (uk - lk), cached for ChildIndex
    // Children and leaves are stored by value (contiguous children,
    // inline EBH header): each descent hop costs one dependent cache
    // miss instead of two or three pointer chases.
    std::vector<SubNode> children;  // empty => leaf
    std::optional<EbhLeaf> leaf;

    bool is_leaf() const { return leaf.has_value(); }
    size_t ChildIndex(Key key) const;
  };

  /// A frame node in levels 1 .. h-1. Children are either further frame
  /// nodes (levels < h-1) or a contiguous range of lock units (level
  /// h-1).
  struct FrameNode {
    Key lk = 0, uk = 0;
    double slope = 0.0;  // fanout / (uk - lk), cached for ChildIndex
    std::vector<FrameNode> children;  // non-empty for upper frame levels
    size_t unit_begin = 0;            // valid when children.empty()
    size_t unit_fanout = 0;

    size_t fanout() const {
      return children.empty() ? unit_fanout : children.size();
    }
    size_t ChildIndex(Key key) const;
  };

  /// One write: what Write applies to a live unit and, when it lands
  /// while the unit's replacement subtree is built aside, what the
  /// pending log keeps for the swap to replay.
  struct PendingOp {
    bool is_insert;
    Key key;
    Value value;
  };

  /// An h-th-level node: the retraining/locking granule.
  ///
  /// Retraining is non-blocking: the retrainer snapshots the unit under
  /// a brief Retraining-Lock, builds the replacement subtree *aside*
  /// while queries and updates keep hitting the old subtree, and
  /// finishes with a second brief exclusive section that replays the
  /// updates logged meanwhile and swaps the roots. Foreground stalls are
  /// bounded by the snapshot/swap, not the rebuild.
  struct Unit {
    Key lk = 0, uk = 0;
    SubNode root;  // by value: the common leaf-unit needs no extra hop
    IntervalLock lock;
    size_t built_keys = 0;
    std::atomic<size_t> inserts_since_build{0};
    // Access heat (obs layer): sampled read/write hit estimates (see
    // obs::HeatSampler), read live by HeatmapSnapshot. Relaxed atomics
    // — statistics, not synchronization. Counters persist across unit
    // retrains (the Unit object survives the subtree swap) and reset
    // on a full rebuild (units are recreated).
    std::atomic<uint64_t> heat_reads{0};
    std::atomic<uint64_t> heat_writes{0};
    // Cumulative spins writers burned waiting for this unit's
    // Writer-Lock (WriteContentionSnapshot source). Relaxed — a
    // statistic, not synchronization.
    std::atomic<uint64_t> heat_write_waits{0};
    // Guarded by `lock`: set (exclusive) by the retrainer, observed by
    // writers holding the unit's Writer-Lock, which every Insert/Erase
    // takes whenever locks are on — so mutation of pending_log is
    // serialized per unit.
    bool rebuilding = false;
    std::vector<PendingOp> pending_log;
  };

  /// A leaf whose slot-array construction was deferred by
  /// BuildSubtreeInto so leaf builds can fan out on the thread pool.
  /// `leaf` stays valid because subtrees are filled in place (children
  /// vectors are sized once, before recursing) and `data` points into
  /// the caller's stable snapshot vector.
  struct DeferredLeaf {
    EbhLeaf* leaf;
    std::span<const KeyValue> data;
  };
  /// A unit whose subtree build was deferred by BuildFrameNode; BuildFrame
  /// fans these out on the thread pool (one task per unit).
  struct UnitBuildTask {
    Unit* unit;
    std::span<const KeyValue> data;
  };

  void BuildFrame(std::span<const KeyValue> data);
  /// Recursively builds frame levels; `level` is this node's level (1 =
  /// root). At level h-1 the children become units, whose subtree builds
  /// are recorded in `*unit_tasks` instead of run inline.
  void BuildFrameNode(FrameNode* node, std::span<const KeyValue> data,
                      int level, size_t fanout_hint,
                      std::vector<UnitBuildTask>* unit_tasks);
  size_t FrameFanoutFor(const FrameNode& node, int level, size_t n) const;
  /// Builds the subtree over `data` into `*node` (filled in place so
  /// leaf addresses are stable). With `deferred` non-null, leaves are
  /// created but their Build() calls are appended to `*deferred` for the
  /// caller to fan out; with nullptr, leaves are built inline.
  void BuildSubtreeInto(SubNode* node, std::span<const KeyValue> data, Key lk,
                        Key uk, int depth,
                        std::vector<DeferredLeaf>* deferred);
  Unit* FindUnit(Key key) const;
  /// The one point descent below a unit: follows Eq. 1 from `node` to
  /// the leaf owning `key` (SubNode or const SubNode).
  template <typename Node>
  static Node* Descend(Node* node, Key key);
  /// Applies `op` to the subtree under `root`; true when the leaf
  /// changed. Foreground writes and the retrainer's replay share it.
  static bool Apply(SubNode* root, const PendingOp& op);
  /// The one write routine behind Insert and Erase: Writer-Lock when
  /// locks are on, Apply, pending-log append while the unit rebuilds,
  /// unlock, then the size/update bookkeeping and MaybeFullReconstruct.
  bool Write(Unit* unit, const PendingOp& op);
  /// The one tree walk: fn(node, depth) on `node`, then on each child
  /// subtree at depth + 1, pre-order and left to right. Serves SubNode
  /// and FrameNode trees, const or not; a callback may size a node's
  /// children before they are visited (the snapshot reader does).
  template <typename Node, typename Fn>
  static void VisitPreOrder(Node& node, int depth, Fn&& fn) {
    fn(node, depth);
    for (auto& child : node.children) VisitPreOrder(child, depth + 1, fn);
  }
  /// One {lo, hi, reads, writes} entry per unit, in key order, with the
  /// two counts taken from `counts(unit)`. Shared walk behind
  /// HeatmapSnapshot and WriteContentionSnapshot: try-locks heatmap_mu_
  /// and returns empty rather than race or stall a structural rebuild.
  obs::Heatmap SnapshotUnits(
      std::pair<uint64_t, uint64_t> (*counts)(const Unit& unit)) const;
  /// Triggers the Sec.-V full reconstruction when the cumulative update
  /// volume crosses the threshold (single-threaded mode only).
  void MaybeFullReconstruct();

  ChameleonConfig config_;
  std::unique_ptr<TsmdpAgent> tsmdp_;
  std::unique_ptr<DareAgent> dare_;
  DareParams dare_params_;  // frame parameters chosen at bulk load

  int h_ = 2;
  Key mk_ = 0;  // dataset min key at bulk load
  Key Mk_ = 1;  // dataset max key + 1 (frame upper bound, exclusive)
  FrameNode frame_root_;
  std::vector<std::unique_ptr<Unit>> units_;
  // Relaxed atomics: multiple writers bump these concurrently in
  // multi-writer mode; they are statistics/thresholds, not
  // synchronization.
  std::atomic<size_t> size_{0};
  size_t built_size_ = 0;          // population at the last full (re)build
  std::atomic<size_t> updates_since_build_{0};  // inserts+erases since then
  size_t total_full_rebuilds_ = 0;
  std::atomic<size_t> total_retrains_{0};
  // Interval locks are only taken while a retraining thread is live or
  // multi-writer mode is on; single-threaded operation pays no atomic
  // RMWs on the query path.
  std::atomic<bool> locks_enabled_{false};
  // Sticky: set by EnableConcurrentWrites, never cleared. Keeps
  // locks_enabled_ true across StopRetrainer.
  std::atomic<bool> concurrent_writes_{false};

  // Held (exclusively) across structural rebuilds that replace units_
  // (BuildFrame, LoadFrom); HeatmapSnapshot try-locks it so the
  // sampler thread never walks a half-built unit vector and never
  // stalls a build. Leaf operations never touch it.
  mutable std::mutex heatmap_mu_;

  // Runs RetrainOnce every interval while started; whole-structure
  // operations hold its pause guard. Declared last: it is stopped
  // before the structure it walks is destroyed.
  PeriodicWorker retrainer_;
};

}  // namespace chameleon

#endif  // CHAMELEON_CORE_CHAMELEON_INDEX_H_
