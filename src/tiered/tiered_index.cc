#include "src/tiered/tiered_index.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "src/api/index_spec.h"
#include "src/obs/phase_timer.h"
#include "src/obs/stats.h"

namespace chameleon {

namespace {

constexpr size_t kNoPage = static_cast<size_t>(-1);

std::string MainPath(const std::string& dir) { return dir + "/main.pages"; }

void SyncDirContaining(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

TieredIndex::TieredIndex(
    std::string dir, TieredOptions options,
    std::function<std::unique_ptr<KvIndex>()> delta_factory)
    : dir_(std::move(dir)),
      options_(options),
      delta_factory_(std::move(delta_factory)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  delta_ = delta_factory_();
  if (delta_ == nullptr) {
    std::fprintf(stderr, "tiered: delta factory returned null for %s\n",
                 dir_.c_str());
    std::abort();
  }
  name_ = "Disk:" + std::string(delta_->Name());
}

TieredIndex::~TieredIndex() {
  // Clean close: fold outstanding writes into the page run so Recover()
  // on this directory sees the full key set.
  if (delta_->size() > 0 || !tombstones_.empty()) Merge();
}

bool TieredIndex::EnsureMainFile() {
  if (main_ != nullptr) return true;
  tiered::PageFileOptions pf;
  pf.page_size = options_.page_size;
  pf.direct_io = options_.direct_io;
  main_ = tiered::PageFile::Create(MainPath(dir_), pf);
  if (main_ == nullptr) return false;
  pool_ = std::make_unique<tiered::BufferPool>(main_.get(), options_.frames);
  return true;
}

void TieredIndex::BulkLoad(std::span<const KeyValue> data) {
  if (!EnsureMainFile()) return;
  const size_t per_page = main_->entries_per_page();
  std::vector<Key> fences;
  // Writes go through the pool on purpose: a frame budget smaller than
  // the load exercises dirty write-back and CLOCK eviction on day one.
  for (size_t off = 0; off < data.size(); off += per_page) {
    const size_t n = std::min(per_page, data.size() - off);
    const uint64_t page_id = off / per_page;
    tiered::PageRef ref = pool_->Pin(page_id, /*for_write=*/true);
    if (!ref.valid()) {
      std::fprintf(stderr, "tiered: bulk load of %s failed at page %llu\n",
                   dir_.c_str(), static_cast<unsigned long long>(page_id));
      return;
    }
    tiered::PageFile::SetPageCount(ref.mutable_data(), static_cast<uint32_t>(n));
    std::memcpy(tiered::PageFile::PageEntries(ref.mutable_data()), data.data() + off,
                n * sizeof(KeyValue));
    ref.MarkDirty();
    fences.push_back(data[off].key);
  }
  if (!pool_->FlushAll() || !main_->SyncHeader(data.size())) {
    std::fprintf(stderr, "tiered: bulk load flush of %s failed\n",
                 dir_.c_str());
    return;
  }
  std::unique_lock<std::shared_mutex> heat_lock(heat_mu_);
  fences_ = std::move(fences);
  disk_entries_ = data.size();
  disk_max_key_ = data.empty() ? 0 : data.back().key;
  heat_reads_.reset(new std::atomic<uint64_t>[fences_.size()]());
  heat_writes_.reset(new std::atomic<uint64_t>[fences_.size()]());
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
#ifndef CHAMELEON_NO_STATS
  if (heat_reads_ != nullptr && page < fences_.size()) {
    CHAMELEON_HEAT_HIT(heat_reads_[page]);
  }
#else
  (void)page;
#endif
}

void TieredIndex::RecordPageWrite(size_t page) const {
#ifndef CHAMELEON_NO_STATS
  if (heat_writes_ != nullptr && page < fences_.size()) {
    CHAMELEON_HEAT_HIT(heat_writes_[page]);
  }
#else
  (void)page;
#endif
}

bool TieredIndex::DiskLookup(Key key, Value* value) const {
  const size_t page = CandidatePage(key);
  if (page == kNoPage) return false;
  tiered::PageRef ref = pool_->Pin(page);
  if (!ref.valid()) return false;
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
      if (!ref.valid()) break;
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
  if (pool_ != nullptr) bytes += pool_->frames() * options_.page_size;
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
  if (!EnsureMainFile()) return false;

  // Phase 1 — scan: drain the delta (sorted) and stream the old run.
  std::vector<KeyValue> delta_entries;
  uint64_t old_pages = 0;
  {
    CHAMELEON_PHASE_SPAN(kMergeScan);
    delta_entries.reserve(delta_->size());
    delta_->RangeScan(kMinKey, kMaxKey, &delta_entries);
    old_pages = main_->num_pages();
  }

  // Phase 2 — write: merge-join old pages with the delta into a fresh
  // page run (temp file, direct sequential I/O, no pool pollution).
  const std::string tmp_path = MainPath(dir_) + ".tmp";
  std::vector<Key> fences;
  uint64_t written_entries = 0;
  {
    CHAMELEON_PHASE_SPAN(kMergeWrite);
    tiered::PageFileOptions pf;
    pf.page_size = options_.page_size;
    pf.direct_io = options_.direct_io;
    std::unique_ptr<tiered::PageFile> out = tiered::PageFile::Create(tmp_path, pf);
    if (out == nullptr) return false;
    const size_t per_page = out->entries_per_page();

    auto in_buf = tiered::PageFile::AllocateAligned(main_->page_size());
    auto out_buf = tiered::PageFile::AllocateAligned(options_.page_size);
    KeyValue* out_entries = tiered::PageFile::PageEntries(out_buf.get());
    size_t out_n = 0;
    uint64_t out_page = 0;
    bool ok = true;

    auto emit = [&](const KeyValue& kv) {
      if (out_n == 0) fences.push_back(kv.key);
      out_entries[out_n++] = kv;
      ++written_entries;
      if (out_n == per_page) {
        tiered::PageFile::SetPageCount(out_buf.get(), static_cast<uint32_t>(out_n));
        ok = ok && out->WritePage(out_page++, out_buf.get());
        out_n = 0;
        std::memset(out_buf.get(), 0, options_.page_size);
      }
    };

    size_t di = 0;  // delta cursor
    for (uint64_t page = 0; page < old_pages && ok; ++page) {
      if (!main_->ReadPage(page, in_buf.get())) {
        ok = false;
        break;
      }
      CHAMELEON_STAT_INC(kTieredPageReads);
      const KeyValue* entries = tiered::PageFile::PageEntries(in_buf.get());
      const uint32_t count = tiered::PageFile::PageCount(in_buf.get());
      for (uint32_t i = 0; i < count; ++i) {
        while (di < delta_entries.size() &&
               delta_entries[di].key < entries[i].key) {
          emit(delta_entries[di++]);
        }
        // Tombstoned disk keys drop out here — including shadowed ones,
        // whose live copy arrives from the delta cursor instead.
        if (tombstones_.count(entries[i].key) == 0) emit(entries[i]);
      }
    }
    while (ok && di < delta_entries.size()) emit(delta_entries[di++]);
    if (ok && out_n > 0) {
      tiered::PageFile::SetPageCount(out_buf.get(), static_cast<uint32_t>(out_n));
      ok = out->WritePage(out_page++, out_buf.get());
    }
    CHAMELEON_STAT_ADD(kTieredPageWrites, out_page);
    if (!ok || !out->SyncHeader(written_entries)) {
      std::filesystem::remove(tmp_path);
      return false;
    }
  }

  // Phase 3 — install: atomic rename over the old run, retarget the
  // pool, swap in a fresh delta, drop tombstones.
  {
    CHAMELEON_PHASE_SPAN(kMergeInstall);
    std::error_code ec;
    std::filesystem::rename(tmp_path, MainPath(dir_), ec);
    if (ec) {
      std::fprintf(stderr, "tiered: installing merged run in %s failed: %s\n",
                   dir_.c_str(), ec.message().c_str());
      std::filesystem::remove(tmp_path);
      return false;
    }
    SyncDirContaining(MainPath(dir_));
    tiered::PageFileOptions pf;
    pf.direct_io = options_.direct_io;
    std::unique_ptr<tiered::PageFile> reopened = tiered::PageFile::Open(MainPath(dir_), pf);
    if (reopened == nullptr) return false;  // unrecoverable mid-install
    main_ = std::move(reopened);
    pool_->Reset(main_.get());

    std::unique_lock<std::shared_mutex> heat_lock(heat_mu_);
    fences_ = std::move(fences);
    disk_entries_ = written_entries;
    disk_max_key_ = 0;
    heat_reads_.reset(new std::atomic<uint64_t>[fences_.size()]());
    heat_writes_.reset(new std::atomic<uint64_t>[fences_.size()]());
  }
  // Recompute the max key from the last page (cheap: one pooled read).
  if (!fences_.empty()) {
    tiered::PageRef ref = pool_->Pin(fences_.size() - 1);
    if (ref.valid()) {
      const uint32_t count = tiered::PageFile::PageCount(ref.data());
      disk_max_key_ = tiered::PageFile::PageEntries(ref.data())[count - 1].key;
    }
  }

  delta_ = delta_factory_();
  tombstones_.clear();
  ++merges_;
  CHAMELEON_STAT_INC(kTieredMerges);
  CHAMELEON_STAT_ADD(kTieredMergeEntries, written_entries);
  return true;
}

bool TieredIndex::Recover() {
  if (main_ != nullptr) return false;  // already loaded
  tiered::PageFileOptions pf;
  pf.direct_io = options_.direct_io;
  main_ = tiered::PageFile::Open(MainPath(dir_), pf);
  if (main_ == nullptr) return false;
  options_.page_size = main_->page_size();  // the file's geometry wins
  pool_ = std::make_unique<tiered::BufferPool>(main_.get(), options_.frames);

  // Rebuild the fence router with one sequential scan of the run,
  // validating every page's checksum on the way.
  std::vector<Key> fences;
  uint64_t entries_seen = 0;
  Key max_key = 0;
  auto buf = tiered::PageFile::AllocateAligned(main_->page_size());
  for (uint64_t page = 0; page < main_->num_pages(); ++page) {
    if (!main_->ReadPage(page, buf.get())) {
      main_.reset();
      pool_.reset();
      return false;
    }
    const uint32_t count = tiered::PageFile::PageCount(buf.get());
    const KeyValue* entries = tiered::PageFile::PageEntries(buf.get());
    if (count == 0) continue;
    fences.push_back(entries[0].key);
    entries_seen += count;
    max_key = entries[count - 1].key;
  }
  if (entries_seen != main_->header_entries()) {
    std::fprintf(stderr,
                 "tiered: %s header claims %llu entries but pages hold %llu\n",
                 MainPath(dir_).c_str(),
                 static_cast<unsigned long long>(main_->header_entries()),
                 static_cast<unsigned long long>(entries_seen));
    main_.reset();
    pool_.reset();
    return false;
  }
  std::unique_lock<std::shared_mutex> heat_lock(heat_mu_);
  fences_ = std::move(fences);
  disk_entries_ = entries_seen;
  disk_max_key_ = max_key;
  heat_reads_.reset(new std::atomic<uint64_t>[fences_.size()]());
  heat_writes_.reset(new std::atomic<uint64_t>[fences_.size()]());
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
  if (out->page_size == 0) out->page_size = tiered->page_size();
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
    out->pool.page_writes += s.page_writes;
  }
  return true;
}

namespace {

bool ParseSizeValue(const std::string& value, size_t* out) {
  char* end = nullptr;
  unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || n == 0) return false;
  if (*end == 'K' || *end == 'k') {
    n *= 1024, ++end;
  } else if (*end == 'M' || *end == 'm') {
    n *= 1024 * 1024, ++end;
  }
  if (*end != '\0') return false;
  *out = static_cast<size_t>(n);
  return true;
}

/// Spec builder for
/// "Disk(<dir>[,pages=<bytes>][,frames=<N>][,merge=<N>][,direct=on|off])".
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
    } else if (option.key == "pages") {
      if (!ParseSizeValue(option.value, &options.page_size) ||
          options.page_size % 512 != 0 ||
          options.page_size < tiered::kPageHeaderBytes + sizeof(KeyValue)) {
        error->pos = option.pos;
        error->message = "bad pages value '" + option.value +
                         "' (expected a multiple of 512 bytes, e.g. 4096 or 4K)";
        return nullptr;
      }
    } else if (option.key == "frames") {
      if (!ParseSizeValue(option.value, &options.frames)) {
        error->pos = option.pos;
        error->message = "bad frames value '" + option.value +
                         "' (expected a positive integer)";
        return nullptr;
      }
    } else if (option.key == "merge") {
      if (!ParseSizeValue(option.value, &options.merge_threshold)) {
        error->pos = option.pos;
        error->message = "bad merge value '" + option.value +
                         "' (expected a positive integer)";
        return nullptr;
      }
    } else if (option.key == "direct") {
      if (option.value == "on") {
        options.direct_io = true;
      } else if (option.value == "off") {
        options.direct_io = false;
      } else {
        error->pos = option.pos;
        error->message =
            "bad direct value '" + option.value + "' (expected on or off)";
        return nullptr;
      }
    } else {
      error->pos = option.pos;
      error->message =
          "unknown Disk option '" + option.key +
          "' (options: pages=<bytes>, frames=<N>, merge=<N>, direct=on|off)";
      return nullptr;
    }
  }
  if (dir.empty()) {
    error->pos = node.pos;
    error->message = "Disk needs a directory: Disk(<dir>):<spec>";
    return nullptr;
  }
  dir += ctx.dir_suffix;
  // The delta factory rebuilds the wrapped spec after every merge; the
  // build context is cloned so per-shard suffixes stay stable.
  auto inner_node = node.inner->Clone();
  auto probe = BuildIndexSpec(*inner_node, ctx, error);
  if (probe == nullptr) return nullptr;
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
                                       std::move(factory));
}

}  // namespace

void RegisterTieredDecorator() {
  RegisterIndexDecorator(
      "Disk",
      DecoratorInfo{
          BuildTieredFromSpec, /*wants_count=*/false,
          "Disk(<dir>[,pages=<bytes>][,frames=<N>][,merge=<N>][,direct=on|off])"
          ":<spec>   page the leaves to <dir> behind a buffer pool "
          "(pages default 4096, frames 256, merge 8192, direct off)"});
}

}  // namespace chameleon
