#ifndef CHAMELEON_API_KV_INDEX_H_
#define CHAMELEON_API_KV_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/obs/heatmap.h"
#include "src/util/common.h"

namespace chameleon {

struct SnapshotMeta;  // src/storage/snapshot.h

/// Structural statistics reported by every index, used to reproduce the
/// paper's Table V (MaxHeight / MaxError / AvgHeight / AvgError / #Nodes).
struct IndexStats {
  /// Deepest leaf level (root = level 1).
  int max_height = 0;
  /// Key-count-weighted average leaf depth.
  double avg_height = 0.0;
  /// Largest model prediction error (slots/positions) over all leaves.
  double max_error = 0.0;
  /// Key-count-weighted average prediction error.
  double avg_error = 0.0;
  /// Total node count (inner + leaf).
  size_t num_nodes = 0;
};

/// The one definition of the Table V measures. A tree index counts its
/// nodes and adds its leaves; a composite adds its parts as whole
/// sub-indexes. The root is level 1 and a leaf's height is its level;
/// averages are weighted by key count, so a composite weights each
/// part's averages by that part's keys. An index holding no keys
/// reports its deepest leaf as its average height and zero average
/// error.
class IndexStatsTally {
 public:
  /// Counts `n` nodes (inner and leaf alike).
  void AddNodes(size_t n = 1) { nodes_ += n; }

  /// Adds the keys of one leaf at `depth`: `keys` keys whose prediction
  /// errors sum to `err_sum` with maximum `err_max`. Counts no node.
  void AddLeaf(int depth, size_t keys, double err_sum = 0.0,
               double err_max = 0.0) {
    max_height_ = std::max(max_height_, depth);
    weighted_height_ += static_cast<double>(keys) * depth;
    error_sum_ += err_sum;
    max_error_ = std::max(max_error_, err_max);
    keys_ += keys;
  }

  /// Adds a whole sub-index holding `keys` keys whose root sits
  /// `levels_above` levels below this index's root, nodes included.
  void AddSubIndex(const IndexStats& stats, size_t keys,
                   int levels_above = 0) {
    nodes_ += stats.num_nodes;
    max_height_ = std::max(max_height_, stats.max_height + levels_above);
    weighted_height_ +=
        (stats.avg_height + levels_above) * static_cast<double>(keys);
    error_sum_ += stats.avg_error * static_cast<double>(keys);
    max_error_ = std::max(max_error_, stats.max_error);
    keys_ += keys;
  }

  IndexStats Finish() const {
    IndexStats stats;
    stats.num_nodes = nodes_;
    stats.max_height = max_height_;
    stats.max_error = max_error_;
    const double keys = static_cast<double>(keys_);
    stats.avg_height = keys_ > 0 ? weighted_height_ / keys : max_height_;
    stats.avg_error = keys_ > 0 ? error_sum_ / keys : 0.0;
    return stats;
  }

 private:
  size_t nodes_ = 0;
  int max_height_ = 0;
  double weighted_height_ = 0.0;
  double error_sum_ = 0.0;
  double max_error_ = 0.0;
  size_t keys_ = 0;
};

/// Common interface implemented by Chameleon and all eight baseline
/// indexes so the test harness and every benchmark can sweep index
/// implementations uniformly.
///
/// Contract:
///  * `BulkLoad` takes keys sorted ascending and strictly unique, and
///    replaces the whole contents: it is the one way an index starts a
///    lifetime, and it may be called again at any time (with no other
///    operation in flight). `BulkLoad({})` empties an index in place;
///    the delta overlay resets its delta that way after every merge.
///  * Keys are unique: `Insert` of a present key returns false and leaves
///    the index unchanged.
///  * `RangeScan` returns pairs with keys in [lo, hi], sorted ascending.
///
/// Stack walk: a deployment adapter that passes operations through to
/// inner indexes (Sharded<N>, Durable) lists them in Children(); leaves
/// list none. The capability defaults below (heat and contention maps,
/// concurrent writes) and the free walks over a built stack
/// (CollectTieredStats, SimulateCrashStack) recurse through Children()
/// and need no per-adapter code. Disk is a terminal: its delta index is
/// private state, not a pass-through child, so walks stop there.
class KvIndex {
 public:
  virtual ~KvIndex() = default;

  /// Builds the index over sorted unique `data`, replacing whatever it
  /// held before.
  virtual void BulkLoad(std::span<const KeyValue> data) = 0;

  /// Point lookup. On success stores the payload in `*value` (if non-null)
  /// and returns true.
  virtual bool Lookup(Key key, Value* value) const = 0;

  /// Batched point lookup: for each keys[i] sets found[i] and, on a hit,
  /// values[i] (misses leave values[i] untouched, exactly like Lookup
  /// leaves *value). `values` and `found` must each hold keys.size()
  /// slots. Results are required to be bit-identical to calling Lookup
  /// per key; the default does exactly that, and implementations may
  /// only reorder/pipeline the probes (ChameleonIndex overlaps groups of
  /// independent lookups with software prefetch).
  virtual void LookupBatch(std::span<const Key> keys, Value* values,
                           bool* found) const {
    for (size_t i = 0; i < keys.size(); ++i) {
      found[i] = Lookup(keys[i], values + i);
    }
  }

  /// Inserts a new pair; returns false if `key` already present.
  virtual bool Insert(Key key, Value value) = 0;

  /// Removes `key`; returns false if absent.
  virtual bool Erase(Key key) = 0;

  /// Appends all pairs with key in [lo, hi] to `*out` in ascending key
  /// order; returns the number appended.
  virtual size_t RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const = 0;

  /// Number of keys currently stored.
  virtual size_t size() const = 0;

  /// Approximate total memory footprint in bytes (structures + payloads).
  virtual size_t SizeBytes() const = 0;

  /// Structural statistics (Table V).
  virtual IndexStats Stats() const = 0;

  /// Short display name ("ALEX", "Chameleon", ...).
  virtual std::string_view Name() const = 0;

  /// The inner indexes this adapter passes operations through to, in
  /// key order (ShardedIndex: its shards; DurableIndex: its one inner
  /// index). Empty for leaves and for terminal adapters (Disk).
  virtual std::span<const std::unique_ptr<KvIndex>> Children() const {
    return {};
  }

  /// Per-unit access heatmap (obs layer): one entry per h-level unit
  /// with its key interval and sampled read/write hit counts, in key
  /// order. The default concatenates the children's maps in child
  /// order, which is key order; a leaf without unit-granular structure
  /// reports an empty map. Implementations must keep this safe to call
  /// concurrently with readers and the retrainer (the metrics sampler
  /// polls it live).
  virtual obs::Heatmap HeatmapSnapshot() const {
    return ConcatChildren(&KvIndex::HeatmapSnapshot);
  }

  /// Restores the index from its durable state instead of BulkLoad.
  /// Only meaningful for stacks with a durable layer (DurableIndex
  /// recovers snapshot + WAL; ShardedIndex recovers every shard, in
  /// parallel, when its shards are durable). The default — a purely
  /// volatile index has nothing to recover from — returns false.
  virtual bool Recover() { return false; }

  /// Persistence hook of Durable checkpoints (storage/snapshot.h):
  /// Persist saves the contents to `path` stamped with the WAL boundary
  /// `wal_seq`; Restore loads that image and returns its header in
  /// `*meta`. The defaults save sorted pairs; Chameleon its structure.
  virtual bool Persist(const std::string& path, uint64_t wal_seq) const;
  virtual bool Restore(const std::string& path, SnapshotMeta* meta);

  /// Capability query: can this stack accept Insert/Erase from multiple
  /// threads concurrently (after EnableConcurrentWrites())? Harnesses
  /// gate multi-writer replay modes on this instead of hardcoded index
  /// lists. The default holds iff there is at least one child and every
  /// child supports it (all-or-nothing: a mixed fleet would funnel some
  /// keys through an unsafe path), so leaves that keep the
  /// single-writer contract report false.
  virtual bool SupportsConcurrentWrites() const {
    const auto children = Children();
    for (const std::unique_ptr<KvIndex>& child : children) {
      if (!child->SupportsConcurrentWrites()) return false;
    }
    return !children.empty();
  }

  /// Switches the index into multi-writer mode (per-interval writer
  /// locks on the core write path). Must be called before concurrent
  /// writers start, never mid-traffic. Returns false — and leaves the
  /// index in single-writer mode — when the stack does not support
  /// concurrent writes. Idempotent. The default enables every child
  /// once SupportsConcurrentWrites() holds.
  virtual bool EnableConcurrentWrites() {
    if (!SupportsConcurrentWrites()) return false;
    for (const std::unique_ptr<KvIndex>& child : Children()) {
      if (!child->EnableConcurrentWrites()) return false;
    }
    return true;
  }

  /// Per-unit write-contention map: same shape as HeatmapSnapshot() but
  /// `writes` counts contended writer-lock acquisitions (spins observed
  /// by LockWrite) instead of write hits, and `reads` is zero. The
  /// default concatenates the children's maps like HeatmapSnapshot, so
  /// it is empty for stacks without per-interval writer locks. Safe to
  /// call live (the metrics sampler polls it).
  virtual obs::Heatmap WriteContentionSnapshot() const {
    return ConcatChildren(&KvIndex::WriteContentionSnapshot);
  }

 private:
  /// Calls `snapshot` (virtually) on every child; concatenates in order.
  obs::Heatmap ConcatChildren(
      obs::Heatmap (KvIndex::*snapshot)() const) const {
    obs::Heatmap merged;
    for (const std::unique_ptr<KvIndex>& child : Children()) {
      obs::Heatmap part = (child.get()->*snapshot)();
      merged.insert(merged.end(), part.begin(), part.end());
    }
    return merged;
  }
};

}  // namespace chameleon

#endif  // CHAMELEON_API_KV_INDEX_H_
