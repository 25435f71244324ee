#include "src/tiered/tiered_index.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <utility>

#include "src/api/index_spec.h"
#include "src/obs/phase_timer.h"
#include "src/obs/stats.h"
#include "src/util/io.h"

namespace chameleon {

namespace {

constexpr size_t kNoPage = static_cast<size_t>(-1);

std::string MainPath(const std::string& dir) { return dir + "/main.pages"; }

}  // namespace

// Merge's write and install spans; BulkLoad's run goes live untimed.
#ifndef CHAMELEON_NO_STATS
#define TIERED_MERGE_SPAN(merge, phase)                              \
  std::optional<obs::PhaseSpan> CHAMELEON_PP_CAT(span_, __LINE__);   \
  if (merge) CHAMELEON_PP_CAT(span_, __LINE__).emplace(obs::WritePhase::phase)
#else
#define TIERED_MERGE_SPAN(merge, phase) ((void)(merge))
#endif

template <typename Fill>
bool TieredIndex::WriteRun(tiered::PageFile* file, Fill fill,
                           RunLayout* layout) {
  auto page = std::make_unique<tiered::Page>();
  KeyValue* entries = tiered::PageFile::PageEntries(page.get());
  size_t n = 0;
  bool ok = true;
  auto flush = [&] {
    // Only a run's last page is partial; its tail must be zero.
    std::fill(entries + n, entries + tiered::kEntriesPerPage, KeyValue{});
    tiered::PageFile::SetPageCount(page.get(), static_cast<uint32_t>(n));
    ok = ok && file->WritePage(file->num_pages(), page.get());
    if (ok) CHAMELEON_STAT_INC(kTieredPageWrites);
    n = 0;
  };
  auto emit = [&](const KeyValue& kv) {
    if (n == 0) layout->fences.push_back(kv.key);
    entries[n++] = kv;
    ++layout->entries;
    layout->max_key = kv.key;
    if (n == tiered::kEntriesPerPage) flush();
  };
  ok = fill(emit) && ok;
  if (ok && n > 0) flush();
  return ok && file->SyncHeader(layout->entries);
}

template <typename Fill>
bool TieredIndex::CommitRun(Fill fill, bool merge) {
  const std::string path = MainPath(dir_);
  std::unique_ptr<tiered::PageFile> file;
  RunLayout layout;
  {
    TIERED_MERGE_SPAN(merge, kMergeWrite);
    if (!CommitFile(path, [&](const std::string& tmp) {
          file = tiered::PageFile::Create(tmp, path);
          return file != nullptr && WriteRun(file.get(), fill, &layout);
        })) {
      std::fprintf(stderr, "tiered: %s not replaced\n", path.c_str());
      return false;
    }
  }
  TIERED_MERGE_SPAN(merge, kMergeInstall);
  Install(std::move(file), std::move(layout));
  return true;
}

TieredIndex::TieredIndex(
    std::string dir, TieredOptions options, std::unique_ptr<KvIndex> delta,
    std::function<std::unique_ptr<KvIndex>()> delta_factory)
    : dir_(std::move(dir)),
      options_(options),
      delta_factory_(std::move(delta_factory)),
      delta_(std::move(delta)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  name_ = "Disk:" + std::string(delta_->Name());
}

TieredIndex::~TieredIndex() {
  // Clean close: fold outstanding writes into the page run so Recover()
  // on this directory sees the full key set.
  if (delta_->size() > 0 || !tombstones_.empty()) Merge();
}

void TieredIndex::Install(std::unique_ptr<tiered::PageFile> file,
                          RunLayout layout) {
  std::unique_lock<std::shared_mutex> heat_lock(heat_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<tiered::BufferPool>(file.get(), options_.frames);
  } else {
    pool_->Reset(file.get());
  }
  main_ = std::move(file);
  fences_ = std::move(layout.fences);
  disk_entries_ = layout.entries;
  disk_max_key_ = layout.max_key;
  heat_reads_.reset(new std::atomic<uint64_t>[fences_.size()]());
  heat_writes_.reset(new std::atomic<uint64_t>[fences_.size()]());
}

void TieredIndex::BulkLoad(std::span<const KeyValue> data) {
  CommitRun(
      [&](auto emit) {
        for (const KeyValue& kv : data) emit(kv);
        return true;
      },
      /*merge=*/false);
}

size_t TieredIndex::CandidatePage(Key key) const {
  if (fences_.empty() || key < fences_.front()) return kNoPage;
  // Last fence <= key.
  auto it = std::upper_bound(fences_.begin(), fences_.end(), key);
  return static_cast<size_t>(it - fences_.begin()) - 1;
}

// Probes take no lock: only writers (BulkLoad/Merge/Recover) swap the
// fences and heat arrays, and writers never run alongside readers.
void TieredIndex::RecordPageRead(size_t page) const {
  if (heat_reads_ != nullptr && page < fences_.size()) {
    CHAMELEON_HEAT_HIT(heat_reads_[page]);
  }
}

void TieredIndex::RecordPageWrite(size_t page) const {
  if (heat_writes_ != nullptr && page < fences_.size()) {
    CHAMELEON_HEAT_HIT(heat_writes_[page]);
  }
}

bool TieredIndex::DiskLookup(Key key, Value* value) const {
  const size_t page = CandidatePage(key);
  if (page == kNoPage) return false;
  tiered::PageRef ref = pool_->Pin(page);
  RecordPageRead(page);
  const KeyValue* entries = tiered::PageFile::PageEntries(ref.data());
  const uint32_t count = tiered::PageFile::PageCount(ref.data());
  auto it = std::lower_bound(
      entries, entries + count, key,
      [](const KeyValue& kv, Key k) { return kv.key < k; });
  if (it == entries + count || it->key != key) return false;
  if (value != nullptr) *value = it->value;
  return true;
}

bool TieredIndex::Lookup(Key key, Value* value) const {
  if (delta_->Lookup(key, value)) return true;
  if (tombstones_.count(key) != 0) return false;
  return DiskLookup(key, value);
}

void TieredIndex::LookupBatch(std::span<const Key> keys, Value* values,
                              bool* found) const {
  delta_->LookupBatch(keys, values, found);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (found[i] || tombstones_.count(keys[i]) != 0) continue;
    found[i] = DiskLookup(keys[i], values + i);
  }
}

bool TieredIndex::Insert(Key key, Value value) {
  if (!delta_->Insert(key, value)) return false;  // duplicate in delta
  CHAMELEON_STAT_INC(kTieredDeltaInserts);
  if (tombstones_.count(key) != 0) {
    // Shadowing a dead disk copy (erased, now re-inserted): the
    // tombstone stays so the stale disk entry remains invisible until
    // the next merge drops both.
    RecordPageWrite(CandidatePage(key));
    MaybeMerge();
    return true;
  }
  if (DiskContains(key)) {
    delta_->Erase(key);  // live on disk: duplicate, undo the delta probe
    return false;
  }
  MaybeMerge();
  return true;
}

bool TieredIndex::Erase(Key key) {
  // A delta hit covers both fresh keys and re-inserts shadowing a
  // tombstoned disk copy; in either case the tombstone (if any) stays
  // correct after removing the delta entry.
  if (delta_->Erase(key)) return true;
  if (tombstones_.count(key) != 0) return false;  // already dead
  if (DiskContains(key)) {
    tombstones_.insert(key);
    RecordPageWrite(CandidatePage(key));
    MaybeMerge();
    return true;
  }
  return false;
}

size_t TieredIndex::RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const {
  // Disk side: every page whose key interval intersects [lo, hi],
  // pinned one at a time, minus tombstoned keys.
  std::vector<KeyValue> disk;
  if (!fences_.empty() && lo <= disk_max_key_) {
    size_t page = CandidatePage(lo);
    if (page == kNoPage) page = 0;  // lo precedes the first fence
    for (; page < fences_.size() && fences_[page] <= hi; ++page) {
      tiered::PageRef ref = pool_->Pin(page);
      RecordPageRead(page);
      const KeyValue* entries = tiered::PageFile::PageEntries(ref.data());
      const uint32_t count = tiered::PageFile::PageCount(ref.data());
      auto first = std::lower_bound(
          entries, entries + count, lo,
          [](const KeyValue& kv, Key k) { return kv.key < k; });
      for (; first != entries + count && first->key <= hi; ++first) {
        if (tombstones_.count(first->key) == 0) disk.push_back(*first);
      }
    }
  }
  // Delta side, then a disjoint-key merge (the tiers never both hold a
  // live copy of one key).
  std::vector<KeyValue> delta;
  delta_->RangeScan(lo, hi, &delta);
  const size_t before = out->size();
  out->resize(before + disk.size() + delta.size());
  std::merge(disk.begin(), disk.end(), delta.begin(), delta.end(),
             out->begin() + before);
  return disk.size() + delta.size();
}

size_t TieredIndex::size() const {
  return disk_entries_ - tombstones_.size() + delta_->size();
}

size_t TieredIndex::SizeBytes() const {
  size_t bytes = delta_->SizeBytes() + fences_.size() * sizeof(Key) +
                 tombstones_.size() * sizeof(Key);
  if (main_ != nullptr) bytes += main_->SizeBytes();
  if (pool_ != nullptr) bytes += pool_->frames() * tiered::kPageSize;
  return bytes;
}

IndexStats TieredIndex::Stats() const {
  // The disk tier is a two-level structure (fence array over leaf
  // pages) with exact search inside a page: height 2, error 0. Heights
  // and errors are key-count-weighted with the delta's own stats, the
  // same averaging Table V uses across leaves.
  const IndexStats delta_stats = delta_->Stats();
  const double n_disk =
      static_cast<double>(disk_entries_ - tombstones_.size());
  const double n_delta = static_cast<double>(delta_->size());
  const double total = n_disk + n_delta;
  IndexStats s;
  s.num_nodes = (main_ != nullptr ? main_->num_pages() : 0) + 1 +
                delta_stats.num_nodes;
  if (total == 0) {
    s.max_height = 1;
    s.avg_height = 1.0;
    return s;
  }
  s.max_height = std::max(n_disk > 0 ? 2 : 1, delta_stats.max_height);
  const double delta_avg_h =
      n_delta > 0 ? std::max(delta_stats.avg_height, 1.0) : 0.0;
  s.avg_height = (n_disk * 2.0 + n_delta * delta_avg_h) / total;
  s.max_error = delta_stats.max_error;
  s.avg_error = (n_delta * delta_stats.avg_error) / total;
  return s;
}

obs::Heatmap TieredIndex::HeatmapSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(heat_mu_);
  obs::Heatmap map;
  map.reserve(fences_.size());
  for (size_t i = 0; i < fences_.size(); ++i) {
    obs::UnitHeat unit;
    unit.lo = fences_[i];
    unit.hi = i + 1 < fences_.size() ? fences_[i + 1] : disk_max_key_ + 1;
    unit.reads = heat_reads_[i].load(std::memory_order_relaxed);
    unit.writes = heat_writes_[i].load(std::memory_order_relaxed);
    map.push_back(unit);
  }
  return map;
}

void TieredIndex::MaybeMerge() {
  if (delta_->size() + tombstones_.size() >= options_.merge_threshold) {
    Merge();
  }
}

bool TieredIndex::Merge() {
  if (delta_->size() == 0 && tombstones_.empty()) return true;

  // Phase 1 — scan: drain the delta (sorted).
  std::vector<KeyValue> delta_entries;
  {
    CHAMELEON_PHASE_SPAN(kMergeScan);
    delta_entries.reserve(delta_->size());
    delta_->RangeScan(kMinKey, kMaxKey, &delta_entries);
  }

  // Phase 2 — write: merge-join the old run's pages with the delta into
  // a fresh run (sequential I/O, no pool pollution) and commit it over
  // the old one. Phase 3 — install it; then swap in a fresh delta and
  // drop tombstones.
  auto fill = [&](auto emit) {
    const uint64_t old_pages = main_ != nullptr ? main_->num_pages() : 0;
    auto in = std::make_unique<tiered::Page>();
    size_t di = 0;  // delta cursor
    for (uint64_t page = 0; page < old_pages; ++page) {
      if (!main_->ReadPage(page, in.get())) return false;
      CHAMELEON_STAT_INC(kTieredPageReads);
      const KeyValue* entries = tiered::PageFile::PageEntries(in.get());
      const uint32_t count = tiered::PageFile::PageCount(in.get());
      for (uint32_t i = 0; i < count; ++i) {
        while (di < delta_entries.size() &&
               delta_entries[di].key < entries[i].key) {
          emit(delta_entries[di++]);
        }
        // Tombstoned disk keys drop out here — including shadowed
        // ones, whose live copy arrives from the delta cursor instead.
        if (tombstones_.count(entries[i].key) == 0) emit(entries[i]);
      }
    }
    while (di < delta_entries.size()) emit(delta_entries[di++]);
    return true;
  };
  if (!CommitRun(fill, /*merge=*/true)) return false;
  delta_ = delta_factory_();
  tombstones_.clear();
  ++merges_;
  CHAMELEON_STAT_INC(kTieredMerges);
  CHAMELEON_STAT_ADD(kTieredMergeEntries, disk_entries_);
  return true;
}

bool TieredIndex::Recover() {
  if (main_ != nullptr) return false;  // already loaded
  std::unique_ptr<tiered::PageFile> file =
      tiered::PageFile::Open(MainPath(dir_));
  if (file == nullptr) return false;

  // Rebuild the fence router with one sequential scan of the run,
  // validating every page's checksum on the way.
  RunLayout layout;
  auto buf = std::make_unique<tiered::Page>();
  for (uint64_t page = 0; page < file->num_pages(); ++page) {
    if (!file->ReadPage(page, buf.get())) return false;
    const uint32_t count = tiered::PageFile::PageCount(buf.get());
    const KeyValue* entries = tiered::PageFile::PageEntries(buf.get());
    if (count == 0) continue;
    layout.fences.push_back(entries[0].key);
    layout.entries += count;
    layout.max_key = entries[count - 1].key;
  }
  if (layout.entries != file->header_entries()) {
    std::fprintf(stderr,
                 "tiered: %s header claims %llu entries but pages hold %llu\n",
                 MainPath(dir_).c_str(),
                 static_cast<unsigned long long>(file->header_entries()),
                 static_cast<unsigned long long>(layout.entries));
    return false;
  }
  Install(std::move(file), std::move(layout));
  CHAMELEON_STAT_INC(kRecoveries);
  return true;
}

bool CollectTieredStats(const KvIndex* index, TieredStatsBlock* out) {
  if (index == nullptr) return false;
  const auto* tiered = dynamic_cast<const TieredIndex*>(index);
  if (tiered == nullptr) {
    bool found = false;
    for (const std::unique_ptr<KvIndex>& child : index->Children()) {
      found = CollectTieredStats(child.get(), out) || found;
    }
    return found;
  }
  ++out->layers;
  out->frames += tiered->frame_budget();
  out->page_size = tiered::kPageSize;
  out->pages += tiered->disk_pages();
  out->disk_entries += tiered->disk_entries();
  out->delta_entries += tiered->delta_entries();
  out->tombstones += tiered->tombstone_count();
  out->merges += tiered->merges();
  if (tiered->pool() != nullptr) {
    const tiered::BufferPoolStats s = tiered->pool()->stats();
    out->pool.hits += s.hits;
    out->pool.misses += s.misses;
    out->pool.evictions += s.evictions;
    out->pool.page_reads += s.page_reads;
  }
  return true;
}

namespace {

/// Spec builder for "Disk(<dir>[,frames=<N>][,merge=<N>])".
/// The positional dir gets the build context's suffix appended, so
/// Sharded4:Disk(d):X roots each shard's page run at d/shard-<i>.
std::unique_ptr<KvIndex> BuildTieredFromSpec(const SpecNode& node,
                                             const SpecBuildContext& ctx,
                                             SpecError* error) {
  std::string dir;
  TieredOptions options;
  for (const SpecOption& option : node.options) {
    if (option.key.empty()) {
      if (!dir.empty()) {
        error->pos = option.pos;
        error->message = "Disk takes one positional argument (the directory)";
        return nullptr;
      }
      dir = option.value;
    } else if (option.key == "frames" || option.key == "merge") {
      size_t* field = option.key == "frames" ? &options.frames
                                             : &options.merge_threshold;
      if (!ReadSpecPositiveCount(option.value, option.pos, option.key, field,
                                 error)) {
        return nullptr;
      }
    } else {
      error->pos = option.pos;
      error->message = "unknown Disk option '" + option.key +
                       "' (options: frames=<N>, merge=<N>)";
      return nullptr;
    }
  }
  if (dir.empty()) {
    error->pos = node.pos;
    error->message = "Disk needs a directory: Disk(<dir>):<spec>";
    return nullptr;
  }
  dir += ctx.dir_suffix;
  // The first build validates the wrapped spec and becomes the first
  // delta; the factory rebuilds it after every merge, with the build
  // context cloned so per-shard suffixes stay stable.
  auto inner_node = node.inner->Clone();
  auto delta = BuildIndexSpec(*inner_node, ctx, error);
  if (delta == nullptr) return nullptr;
  auto factory = [spec = std::shared_ptr<SpecNode>(std::move(inner_node)),
                  ctx_copy = ctx]() -> std::unique_ptr<KvIndex> {
    SpecError err;
    auto built = BuildIndexSpec(*spec, ctx_copy, &err);
    if (built == nullptr) {
      std::fprintf(stderr, "tiered: delta rebuild failed: %s\n",
                   err.Render().c_str());
    }
    return built;
  };
  return std::make_unique<TieredIndex>(std::move(dir), options,
                                       std::move(delta), std::move(factory));
}

}  // namespace

void RegisterTieredDecorator() {
  RegisterIndexDecorator(
      "Disk",
      DecoratorInfo{
          BuildTieredFromSpec, /*wants_count=*/false,
          "Disk(<dir>[,frames=<N>][,merge=<N>]):<spec>   page the leaves "
          "to <dir> in 4 KiB pages behind a read-only buffer pool "
          "(frames default 256, merge 8192; decimal suffixes, 1k = 1000)"});
}

}  // namespace chameleon
