#include "src/engine/sharded_index.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <stdexcept>

#include "src/api/index_spec.h"
#include "src/obs/stats.h"
#include "src/storage/durable_index.h"
#include "src/storage/snapshot.h"
#include "src/util/io.h"
#include "src/util/thread_pool.h"

namespace chameleon {
namespace {

std::unique_ptr<KvIndex> BuildShardedFromSpec(const SpecNode& node,
                                              const SpecBuildContext& ctx,
                                              SpecError* error) {
  if (!node.options.empty()) {
    error->pos = node.options.front().pos;
    error->message =
        "Sharded takes no (...) options; the shard count is a name suffix "
        "(Sharded4)";
    return nullptr;
  }
  // The spec layer rejects a count outside [1, kMaxShards] before
  // building. One shard is the inner stack itself: same name, answers,
  // footprint and directory layout.
  if (node.count == 1) return BuildIndexSpec(*node.inner, ctx, error);
  std::vector<std::unique_ptr<KvIndex>> shards;
  for (size_t i = 0; i < node.count; ++i) {
    SpecBuildContext shard_ctx = ctx;
    shard_ctx.dir_suffix += "/shard-" + std::to_string(i);
    std::unique_ptr<KvIndex> shard =
        BuildIndexSpec(*node.inner, shard_ctx, error);
    if (shard == nullptr) return nullptr;
    shards.push_back(std::move(shard));
  }
  // The routing table lives beside the shard stacks, under the first
  // Durable root (with the outer build context's suffix; the per-shard
  // suffixes sit below it). Volatile shards persist nothing.
  std::string meta_path;
  const std::vector<std::string> roots = DurableDirsOf(*node.inner);
  if (!roots.empty()) {
    meta_path = roots.front() + ctx.dir_suffix + "/shards.meta";
  }
  return std::make_unique<ShardedIndex>(std::move(shards),
                                        std::move(meta_path));
}

}  // namespace

void RegisterShardedDecorator() {
  RegisterIndexDecorator(
      "Sharded",
      DecoratorInfo{
          BuildShardedFromSpec, /*wants_count=*/true,
          "Sharded<N>:<spec>   range-partition across N shards, each shard "
          "built from its own copy of <spec> (durable inners root at "
          "<dir>/shard-<i>)"});
}

ShardedIndex::ShardedIndex(std::vector<std::unique_ptr<KvIndex>> shards,
                           std::string meta_path)
    : name_(std::string(shards.front()->Name()) + "/shards=" +
            std::to_string(shards.size())),
      shards_(std::move(shards)),
      meta_path_(std::move(meta_path)) {}

size_t ShardedIndex::ShardFor(Key key) const {
  if (lower_.empty()) return 0;
  // lower_[i] (i >= 1) is the first key of shard i; the last boundary
  // <= key wins. Keys below every boundary (including below the loaded
  // minimum) route to shard 0, keys above the loaded maximum to the
  // last shard, so inserts outside the bulk-load range stay routable.
  return static_cast<size_t>(
      std::upper_bound(lower_.begin() + 1, lower_.end(), key) -
      lower_.begin() - 1);
}

void ShardedIndex::BulkLoad(std::span<const KeyValue> data) {
  const size_t n_shards = shards_.size();
  // Quantile boundaries: shard i owns data[i*n/N .. (i+1)*n/N). Using
  // rank (not key-space) cut points keeps the initial shards balanced
  // under arbitrary skew. With n < N the trailing shards stay empty
  // (duplicate cut ranks produce empty slices and upper_bound routes
  // past them consistently).
  const size_t n = data.size();
  std::vector<size_t> cut(n_shards + 1);
  for (size_t i = 0; i <= n_shards; ++i) cut[i] = i * n / n_shards;
  lower_.assign(n_shards, kMinKey);
  for (size_t i = 1; i < n_shards; ++i) {
    lower_[i] = cut[i] < n ? data[cut[i]].key : kMaxKey;
  }

  // A load starts a new lifetime: the previous routing table goes before
  // any shard is rebuilt, so an unfinished load leaves no table and
  // Recover() fails rather than route over shards of two lifetimes.
  std::error_code ec;
  if (!meta_path_.empty() && std::filesystem::remove(meta_path_, ec)) {
    SyncDirOf(meta_path_);
  }

  // Shard builds touch disjoint state and each is thread-count-
  // deterministic, so the merged structure is too.
  const std::exception_ptr error = RunOnThreads(n_shards, [&](size_t i) {
    shards_[i]->BulkLoad(data.subspan(cut[i], cut[i + 1] - cut[i]));
  });
  CHAMELEON_STAT_ADD(kShardBuilds, n_shards);
  if (error) std::rethrow_exception(error);

  // Durable shards persist the routing table, a sorted-pairs snapshot of
  // (lower bound, shard index), next to their per-shard stacks so a fresh
  // instance can Recover() without re-deriving the quantiles (an empty
  // shard's range is unrecoverable from its data).
  if (meta_path_.empty()) return;
  std::vector<KeyValue> table(n_shards);
  for (size_t i = 0; i < n_shards; ++i) table[i] = {lower_[i], i};
  std::filesystem::create_directories(
      std::filesystem::path(meta_path_).parent_path(), ec);
  if (!WritePairsSnapshot(table, meta_path_, /*wal_seq=*/0)) {
    throw std::runtime_error("ShardedIndex: cannot write " + meta_path_);
  }
}

bool ShardedIndex::Recover() {
  // A checksum failure or a table for another shard count (the spec and
  // the directories disagree) is refused, never guessed around.
  std::vector<KeyValue> table;
  if (meta_path_.empty() || !ReadPairsSnapshot(meta_path_, &table) ||
      table.size() != shards_.size()) {
    return false;
  }
  lower_.clear();
  for (const KeyValue& row : table) {
    if (row.value != lower_.size()) return false;
    lower_.push_back(row.key);
  }

  // Shards own disjoint key ranges and private WAL+snapshot stacks, so
  // their recoveries are independent and run in parallel.
  std::atomic<bool> ok{true};
  const std::exception_ptr error =
      RunOnThreads(shards_.size(), [&](size_t i) {
        if (!shards_[i]->Recover()) ok.store(false, std::memory_order_relaxed);
      });
  return !error && ok.load(std::memory_order_relaxed);
}

bool ShardedIndex::Lookup(Key key, Value* value) const {
  return shards_[ShardFor(key)]->Lookup(key, value);
}

void ShardedIndex::LookupBatch(std::span<const Key> keys, Value* values,
                               bool* found) const {
  // Scatter/gather: per-shard key groups preserve the caller's relative
  // order, each shard probes its group through its own (possibly
  // pipelined) LookupBatch, and hits are written back to the original
  // positions. Miss positions are never written, preserving the
  // "values[i] untouched on a miss" contract.
  const size_t n_shards = shards_.size();
  std::vector<std::vector<Key>> shard_keys(n_shards);
  std::vector<std::vector<size_t>> shard_pos(n_shards);
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t s = ShardFor(keys[i]);
    shard_keys[s].push_back(keys[i]);
    shard_pos[s].push_back(i);
  }
  std::vector<Value> tmp_values;
  std::unique_ptr<bool[]> tmp_found;
  size_t tmp_cap = 0;
  for (size_t s = 0; s < n_shards; ++s) {
    const size_t m = shard_keys[s].size();
    if (m == 0) continue;
    if (m > tmp_cap) {
      tmp_found.reset(new bool[m]);
      tmp_cap = m;
    }
    tmp_values.assign(m, Value{});
    shards_[s]->LookupBatch(
        std::span<const Key>(shard_keys[s].data(), m), tmp_values.data(),
        tmp_found.get());
    for (size_t j = 0; j < m; ++j) {
      const size_t pos = shard_pos[s][j];
      found[pos] = tmp_found[j];
      if (tmp_found[j]) values[pos] = tmp_values[j];
    }
  }
}

bool ShardedIndex::Insert(Key key, Value value) {
  return shards_[ShardFor(key)]->Insert(key, value);
}

bool ShardedIndex::Erase(Key key) {
  return shards_[ShardFor(key)]->Erase(key);
}

size_t ShardedIndex::RangeScan(Key lo, Key hi,
                               std::vector<KeyValue>* out) const {
  // Shards partition the key space in ascending order, so appending
  // per-shard results in shard order stitches a sorted scan. Only
  // shards whose range intersects [lo, hi] are visited.
  size_t count = 0;
  const size_t first = ShardFor(lo);
  const size_t last = ShardFor(hi);
  for (size_t s = first; s <= last; ++s) {
    count += shards_[s]->RangeScan(lo, hi, out);
  }
  return count;
}

size_t ShardedIndex::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

size_t ShardedIndex::SizeBytes() const {
  size_t total = sizeof(ShardedIndex) +
                 shards_.capacity() * sizeof(void*) +
                 lower_.capacity() * sizeof(Key);
  for (const auto& shard : shards_) total += shard->SizeBytes();
  return total;
}

IndexStats ShardedIndex::Stats() const {
  IndexStatsTally tally;
  for (const auto& shard : shards_) {
    tally.AddSubIndex(shard->Stats(), shard->size());
  }
  return tally.Finish();
}

std::string_view ShardedIndex::Name() const { return name_; }

}  // namespace chameleon
