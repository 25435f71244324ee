#ifndef CHAMELEON_ENGINE_SHARDED_INDEX_H_
#define CHAMELEON_ENGINE_SHARDED_INDEX_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/kv_index.h"

namespace chameleon {

/// Largest shard count a Sharded<N> spec accepts: BulkLoad and Recover
/// start one OS thread per shard.
inline constexpr size_t kMaxShards = 256;

/// Serving-engine layer: a KvIndex adapter that range-partitions the key
/// space across N inner indexes (the "shards"), each built independently
/// from an inner *spec template*. Shard boundaries are the bulk-load key
/// quantiles (shard i owns data[i*n/N .. (i+1)*n/N)), so shards start out
/// balanced regardless of the key distribution; routing is one branchless
/// upper_bound over the N-1 boundary keys, after which every operation
/// is delegated to exactly one inner index. Cross-shard RangeScans
/// stitch per-shard results in shard order (shards partition the key
/// space in order, so the concatenation is already sorted).
///
/// Because each shard instantiates the whole inner spec, a durable inner
/// ("Sharded4:Durable(d):Chameleon") gives every shard its own WAL +
/// snapshot stack rooted at d/shard-<i> — the per-shard build context
/// appends "/shard-<i>" and the Durable adapter roots itself under it.
/// The quantile boundaries are persisted alongside (d/shards.meta, a
/// sorted-pairs snapshot file of (lower bound, shard index), removed when
/// BulkLoad starts and committed when every shard is built; BulkLoad
/// throws std::runtime_error naming it when it cannot be written) so a freshly
/// constructed stack can Recover(): the meta restores routing, then all
/// shards replay their own WALs in parallel. Shards own disjoint key ranges, so
/// per-shard recovery needs no cross-shard ordering.
///
/// `Sharded1:<spec>` builds <spec> itself, with no adapter around it —
/// same name, results, Stats(), SizeBytes() and directory layout — so a
/// sharded deployment can always be collapsed for apples-to-apples
/// comparison against the historical single-index baselines. A
/// ShardedIndex therefore always has at least two shards.
///
/// Thread model: BulkLoad builds shards in parallel (each shard build
/// fans its heavy work out on the global ThreadPool; see the .cc).
/// After the build, the adapter adds no synchronization of its own:
/// concurrent *readers* are safe whenever the inner index's read path
/// is (routing state is immutable after BulkLoad), and writes follow
/// the inner index's write contract — single-writer by default, or
/// fully concurrent when every shard supports it (the shards are the
/// adapter's Children(), so the KvIndex capability defaults apply).
/// Operations on different shards never share mutable adapter state,
/// so even single-writer inners give a key-partitioning driver
/// shard-level write parallelism for free.
class ShardedIndex final : public KvIndex {
 public:
  /// Takes the built shards (at least two). `meta_path` is where the
  /// routing table is persisted, or "" for volatile shards.
  ShardedIndex(std::vector<std::unique_ptr<KvIndex>> shards,
               std::string meta_path);

  void BulkLoad(std::span<const KeyValue> data) override;
  bool Lookup(Key key, Value* value) const override;
  /// Scatter/gather batched lookup: keys are grouped per shard (stable
  /// within each group) so each inner LookupBatch keeps its pipelining
  /// window, then hits are scattered back to the caller's positions.
  /// Misses leave values[i] untouched, exactly like Lookup.
  void LookupBatch(std::span<const Key> keys, Value* values,
                   bool* found) const override;
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const override;
  size_t size() const override;
  size_t SizeBytes() const override;
  /// Merged statistics: each shard added as a whole sub-index at the
  /// same level (IndexStatsTally), so averages weight shards by keys.
  IndexStats Stats() const override;
  std::string_view Name() const override;
  std::span<const std::unique_ptr<KvIndex>> Children() const override {
    return shards_;
  }

  /// Restores a durable sharded stack: loads the persisted quantile
  /// boundaries (shards.meta under the inner spec's Durable root), then
  /// recovers every shard in parallel — each shard owns its own WAL +
  /// snapshot, so recoveries are independent. Returns false when the
  /// inner stacks are not durable, the meta is missing/corrupt or its
  /// shard count disagrees with this spec, or any shard fails.
  bool Recover() override;

  size_t num_shards() const { return shards_.size(); }
  const KvIndex& shard(size_t i) const { return *shards_[i]; }
  KvIndex& shard(size_t i) { return *shards_[i]; }

  /// Index of the shard owning `key` (exposed for tests and for drivers
  /// that partition an operation stream by shard).
  size_t ShardFor(Key key) const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<KvIndex>> shards_;
  /// lower_[i] is the smallest key routed to shard i (i >= 1; shard 0
  /// takes everything below lower_[1]). Set from the bulk-load
  /// quantiles; immutable afterwards, so lock-free routing is safe under
  /// any reader concurrency. Empty until BulkLoad.
  std::vector<Key> lower_;
  /// "<durable root>/shards.meta" when the inner spec roots a Durable
  /// stack; empty otherwise (volatile shards have no routing state to
  /// persist).
  std::string meta_path_;
};

/// Registers the "Sharded<N>" decorator in the index-spec registry.
/// Called by EnsureBuiltinIndexDecorators(); not for direct use.
void RegisterShardedDecorator();

}  // namespace chameleon

#endif  // CHAMELEON_ENGINE_SHARDED_INDEX_H_
