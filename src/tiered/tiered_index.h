#ifndef CHAMELEON_TIERED_TIERED_INDEX_H_
#define CHAMELEON_TIERED_TIERED_INDEX_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/api/kv_index.h"
#include "src/tiered/buffer_pool.h"
#include "src/tiered/page_file.h"

namespace chameleon {

struct TieredOptions {
  /// Buffer-pool frame budget. frames * tiered::kPageSize bytes of page
  /// cache; a budget smaller than the data forces CLOCK evictions.
  size_t frames = 256;
  /// Absorbed writes (delta entries + tombstones) that trigger an
  /// automatic Merge() into a rewritten page run.
  size_t merge_threshold = 8192;
};

/// Tiered disk-resident leaf storage (DESIGN.md §14): the hybrid
/// memory/disk pattern of "Making In-Memory Learned Indexes Efficient
/// on Disk" (SIGMOD 2024). The bulk-loaded key space lives in a
/// page-aligned on-disk run (`<dir>/main.pages`) behind a fixed-budget,
/// read-only buffer pool; an in-memory *delta index* — a fresh instance
/// of the wrapped spec, e.g. Chameleon — absorbs Insert/Erase; a
/// threshold-triggered Merge() compacts delta + tombstones into a
/// rewritten page run installed by atomic rename. BulkLoad and Merge
/// write their runs with one writer, and BulkLoad, Merge and Recover
/// make a run live with one install step.
///
/// Read path: Lookup probes the delta first (newest data wins), then
/// the tombstone set (a deleted/shadowed disk key is a miss), then
/// routes through the buffer pool to the one candidate disk page found
/// by binary search over the in-memory page fence keys. RangeScan
/// merge-joins pooled disk pages with the delta's scan; LookupBatch is
/// the delta's batched probe plus per-miss disk probes — bit-identical
/// to per-key Lookup by construction. A disk page that cannot be read
/// stops the process (BufferPool::Pin) rather than read as a miss.
///
/// Write semantics (keys unique across tiers):
///   * a key is "live on disk" when it is in the page run and not
///     tombstoned; tombstones_ only ever names disk keys;
///   * delta and live-disk key sets are disjoint: an Insert that would
///     shadow a live disk key is rejected (duplicate), an Erase of a
///     live disk key tombstones it, and re-inserting an erased disk key
///     lands in the delta while the tombstone keeps the stale disk copy
///     dead until the next merge drops it.
///
/// Thread model: concurrent readers are safe, more of them than frames
/// too (the pool serializes frame traffic and a reader waits for a
/// frame when all are pinned; each reader holds one pin at a time;
/// fences and the delta are read-only between writes), writers
/// are externally serialized like every other single-writer index —
/// SupportsConcurrentWrites() is false. The delta is private state, not
/// one of Children(), so stack walks stop here and the delta's own
/// capabilities (a Chameleon delta's concurrent writes, its contention
/// map) never surface through this layer. HeatmapSnapshot() may be polled
/// live by the metrics sampler; it only touches state guarded against
/// Install's swap.
///
/// Clean close: the destructor merges any outstanding delta/tombstones
/// into the page run, so a later TieredIndex on the same directory can
/// Recover() the full key set from disk alone (no WAL — crash-safety
/// composes via an outer Durable layer, which replays unmerged writes
/// into a recovered TieredIndex).
class TieredIndex final : public KvIndex {
 public:
  /// `delta` is the first (empty) delta; `delta_factory` builds a fresh
  /// empty instance of the same spec after every merge.
  TieredIndex(std::string dir, TieredOptions options,
              std::unique_ptr<KvIndex> delta,
              std::function<std::unique_ptr<KvIndex>()> delta_factory);
  ~TieredIndex() override;

  TieredIndex(const TieredIndex&) = delete;
  TieredIndex& operator=(const TieredIndex&) = delete;

  void BulkLoad(std::span<const KeyValue> data) override;
  bool Lookup(Key key, Value* value) const override;
  void LookupBatch(std::span<const Key> keys, Value* values,
                   bool* found) const override;
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const override;
  size_t size() const override;
  size_t SizeBytes() const override;
  IndexStats Stats() const override;
  std::string_view Name() const override { return name_; }
  obs::Heatmap HeatmapSnapshot() const override;

  /// Reopens the page run left by a clean close on this directory.
  /// Returns false when `<dir>/main.pages` is missing or corrupt. Call
  /// on a fresh instance instead of BulkLoad (the Durable recovery
  /// contract).
  bool Recover() override;

  /// Compacts delta + tombstones into a rewritten page run (temp file,
  /// fsync, atomic rename, pool reset). No-op when there is nothing to
  /// merge. Returns false on I/O failure, leaving the old run and the
  /// delta intact.
  bool Merge();

  // --- Introspection (chameleon_inspect, benches, tests) -------------------

  const tiered::BufferPool* pool() const { return pool_.get(); }
  size_t delta_entries() const { return delta_->size(); }
  size_t tombstone_count() const { return tombstones_.size(); }
  uint64_t disk_pages() const { return main_ ? main_->num_pages() : 0; }
  uint64_t disk_entries() const { return disk_entries_; }
  uint64_t merges() const { return merges_; }
  size_t frame_budget() const { return options_.frames; }
  const std::string& dir() const { return dir_; }
  const KvIndex& delta() const { return *delta_; }

 private:
  /// Router state of a written or recovered page run.
  struct RunLayout {
    std::vector<Key> fences;
    uint64_t entries = 0;
    Key max_key = 0;
  };

  /// Makes `file` the live run: retargets (or creates) the pool, then
  /// swaps the fences, counters and fresh heat arrays under heat_mu_.
  /// The one install step of BulkLoad, Merge and Recover.
  void Install(std::unique_ptr<tiered::PageFile> file, RunLayout layout);

  /// The one run writer: packs the ascending pairs that `fill(emit)`
  /// passes to `emit` into consecutive data pages of the fresh `file`,
  /// records the run's router state in `*layout` and makes the run
  /// durable with one SyncHeader. `fill` returns false when its source
  /// fails (a corrupt input page); nothing is synced then.
  template <typename Fill>
  static bool WriteRun(tiered::PageFile* file, Fill fill, RunLayout* layout);

  /// The one way a run goes live (BulkLoad, Merge): WriteRun under
  /// CommitFile's temp name, the commit over main.pages, then Install.
  /// On failure the previous run stays. `merge` times the merge spans.
  template <typename Fill>
  bool CommitRun(Fill fill, bool merge);

  /// Fence binary search: index of the one page that could hold `key`,
  /// or npos when the run is empty or key precedes every fence.
  size_t CandidatePage(Key key) const;
  bool DiskLookup(Key key, Value* value) const;
  bool DiskContains(Key key) const { return DiskLookup(key, nullptr); }
  void RecordPageRead(size_t page) const;
  void RecordPageWrite(size_t page) const;
  void MaybeMerge();

  std::string dir_;
  std::string name_;
  TieredOptions options_;
  std::function<std::unique_ptr<KvIndex>()> delta_factory_;

  std::unique_ptr<tiered::PageFile> main_;
  std::unique_ptr<tiered::BufferPool> pool_;
  /// First key of each data page, ascending — the in-memory router from
  /// key to page (8 bytes per 4K page).
  std::vector<Key> fences_;
  Key disk_max_key_ = 0;
  uint64_t disk_entries_ = 0;
  uint64_t merges_ = 0;

  std::unique_ptr<KvIndex> delta_;
  std::unordered_set<Key> tombstones_;

  /// Guards the heat arrays and fences between the swaps in BulkLoad,
  /// Merge and Recover (exclusive) and HeatmapSnapshot (shared), which
  /// the sampler polls from its own thread. Probes never take it.
  mutable std::shared_mutex heat_mu_;
  mutable std::unique_ptr<std::atomic<uint64_t>[]> heat_reads_;
  mutable std::unique_ptr<std::atomic<uint64_t>[]> heat_writes_;
};

/// Aggregated tiered-layer statistics for an index stack (the
/// chameleon_inspect "tiered" block). Sums across every TieredIndex in
/// the stack (Sharded4:Disk(...) has four).
struct TieredStatsBlock {
  size_t layers = 0;  // TieredIndex instances found
  size_t frames = 0;
  size_t page_size = 0;  // tiered::kPageSize once a layer is found
  uint64_t pages = 0;
  uint64_t disk_entries = 0;
  size_t delta_entries = 0;
  size_t tombstones = 0;
  uint64_t merges = 0;
  tiered::BufferPoolStats pool;
};

/// Walks an index stack through every layer's Children() (mirroring
/// SimulateCrashStack) and accumulates every tiered layer's stats into
/// `*out`. Returns true when at least one TieredIndex was found.
bool CollectTieredStats(const KvIndex* index, TieredStatsBlock* out);

/// Registers the "Disk(...)" decorator in the index-spec registry.
/// Called by EnsureBuiltinIndexDecorators(); not for direct use.
void RegisterTieredDecorator();

}  // namespace chameleon

#endif  // CHAMELEON_TIERED_TIERED_INDEX_H_
