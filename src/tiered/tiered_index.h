#ifndef CHAMELEON_TIERED_TIERED_INDEX_H_
#define CHAMELEON_TIERED_TIERED_INDEX_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/api/delta_overlay.h"
#include "src/tiered/buffer_pool.h"
#include "src/tiered/page_file.h"

namespace chameleon {

struct TieredOptions {
  /// Buffer-pool frame budget. frames * tiered::kPageSize bytes of page
  /// cache; a budget smaller than the data forces S3-FIFO evictions.
  size_t frames = 256;
  /// Absorbed writes (delta entries + tombstones) that trigger an
  /// automatic Merge() into a rewritten page run.
  size_t merge_threshold = 8192;
};

/// Tiered disk-resident leaf storage (DESIGN.md §14): the hybrid
/// memory/disk pattern of "Making In-Memory Learned Indexes Efficient
/// on Disk" (SIGMOD 2024). Reads, writes, merges and reloads are the
/// shared delta overlay's (api/delta_overlay.h), whose delta is the
/// wrapped spec, e.g. Chameleon, reset in place by BulkLoad after every
/// merge and reload. This class supplies the run: a page-aligned file
/// (`<dir>/main.pages`) behind a fixed-budget, read-only buffer pool.
/// A probe picks the page by a halving search over the in-memory page
/// fence keys, then finds the key inside the page by interpolating
/// between the page's fence and the next one and galloping from that
/// guess (tiered::PageLowerBound). A
/// merge streams the old run page by page, past the pool. A page that
/// cannot be read stops the process (BufferPool::Pin) rather than read
/// as a miss.
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
/// InstallRun's swap.
///
/// Clean close: the destructor merges any outstanding delta/tombstones
/// into the page run, so a later TieredIndex on the same directory can
/// Recover() the full key set from disk alone (no WAL — crash-safety
/// composes via an outer Durable layer, which replays unmerged writes
/// into a recovered TieredIndex). Recover() reopens the run alone, so
/// the spec builder refuses a Durable layer below Disk: its WAL would
/// hold acknowledged delta writes that no recovery replays.
class TieredIndex final : public DeltaOverlayIndex {
 public:
  /// `delta` is the empty delta the overlay keeps for its whole life
  /// and resets in place (DeltaOverlayIndex).
  TieredIndex(std::string dir, TieredOptions options,
              std::unique_ptr<KvIndex> delta);
  ~TieredIndex() override;

  TieredIndex(const TieredIndex&) = delete;
  TieredIndex& operator=(const TieredIndex&) = delete;

  size_t SizeBytes() const override;
  IndexStats Stats() const override;
  std::string_view Name() const override { return name_; }
  obs::Heatmap HeatmapSnapshot() const override;

  /// Reopens the page run left by a clean close on this directory.
  /// Returns false when `<dir>/main.pages` is missing or corrupt. Call
  /// on a fresh instance instead of BulkLoad (the Durable recovery
  /// contract).
  bool Recover() override;

  // --- Introspection (chameleon_inspect, benches, tests) -------------------

  const tiered::BufferPool* pool() const { return pool_.get(); }
  uint64_t disk_pages() const { return run_.file ? run_.file->num_pages() : 0; }
  uint64_t disk_entries() const { return run_.entries; }
  size_t frame_budget() const { return options_.frames; }

 private:
  /// A page run: its file and the router state read from it.
  struct Run {
    std::unique_ptr<tiered::PageFile> file;
    /// First key of each data page, ascending — the in-memory router
    /// from key to page (8 bytes per 4K page).
    std::vector<Key> fences;
    uint64_t entries = 0;
    Key max_key = 0;
  };

  bool RunLookup(Key key, Value* value) const override;
  bool ScanRun(Key lo, Key hi, bool merging, ChunkSink visit) const override;
  /// The one run writer (BulkLoad, Merge): packs the stream into
  /// consecutive pages of a fresh file under CommitFile's temp name,
  /// collecting the router state on the way, syncs it once and commits
  /// it over main.pages. On failure main.pages and the live run stay.
  void WriteRun(size_t entries, RunSource source) override;
  /// The one install step of BulkLoad, Merge and Recover: retargets (or
  /// creates) the pool, then swaps in next_ and fresh heat arrays under
  /// heat_mu_.
  void InstallRun() override;
  size_t RunEntries() const override { return run_.entries; }
  bool MergeDue() const override;
  void RecordRunWrite(Key key) const override;

  /// Fence search: index of the one page that could hold `key`, or
  /// npos when the run is empty or key precedes every fence.
  size_t CandidatePage(Key key) const;
  /// The upper key anchor of `page`: the next page's fence (exclusive),
  /// or the run's largest key (inclusive) for the last page.
  Key PageLimit(size_t page) const;
  void RecordPageRead(size_t page) const;

  std::string dir_;
  std::string name_;
  TieredOptions options_;
  std::unique_ptr<tiered::BufferPool> pool_;
  Run run_;   // live
  Run next_;  // written or recovered, not yet installed

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
