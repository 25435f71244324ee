#include "src/tiered/tiered_index.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
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

void TieredIndex::WriteRun(size_t /*entries*/, RunSource source) {
  const std::string path = MainPath(dir_);
  Run& run = next_ = Run{};
  auto pack = [&](const std::string& tmp) {
    run.file = tiered::PageFile::Create(tmp, path);
    if (run.file == nullptr) return false;
    auto page = std::make_unique<tiered::Page>();
    KeyValue* entries = tiered::PageFile::PageEntries(page.get());
    size_t n = 0;
    bool ok = true;
    auto flush = [&] {
      // Only a run's last page is partial; its tail must be zero.
      std::fill(entries + n, entries + tiered::kEntriesPerPage, KeyValue{});
      tiered::PageFile::SetPageCount(page.get(), static_cast<uint32_t>(n));
      ok = ok && run.file->WritePage(run.file->num_pages(), page.get());
      if (ok) CHAMELEON_STAT_INC(kTieredPageWrites);
      n = 0;
    };
    ok = source([&](RunChunk chunk) {
           for (const KeyValue& kv : chunk) {
             if (n == 0) run.fences.push_back(kv.key);
             entries[n++] = kv;
             if (n == tiered::kEntriesPerPage) flush();
           }
           run.entries += chunk.size();
           if (!chunk.empty()) run.max_key = chunk.back().key;
         }) &&
         ok;
    if (ok && n > 0) flush();
    return ok && run.file->SyncHeader(run.entries);
  };
  if (!CommitFile(path, pack)) {
    next_ = {};
    throw std::runtime_error("tiered: " + path + " not replaced");
  }
}

void TieredIndex::InstallRun() {
  std::unique_lock<std::shared_mutex> heat_lock(heat_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<tiered::BufferPool>(next_.file.get(),
                                                 options_.frames);
  } else {
    pool_->Reset(next_.file.get());
  }
  run_ = std::exchange(next_, Run{});
  heat_reads_.reset(new std::atomic<uint64_t>[run_.fences.size()]());
  heat_writes_.reset(new std::atomic<uint64_t>[run_.fences.size()]());
}

TieredIndex::TieredIndex(std::string dir, TieredOptions options,
                         std::unique_ptr<KvIndex> delta)
    : DeltaOverlayIndex(std::move(delta)),
      dir_(std::move(dir)),
      name_("Disk:" + std::string(this->delta().Name())),
      options_(options) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
}

TieredIndex::~TieredIndex() {
  // Clean close: fold outstanding writes into the page run so Recover()
  // on this directory sees the full key set.
  Merge();
}

size_t TieredIndex::CandidatePage(Key key) const {
  const std::vector<Key>& fences = run_.fences;
  if (fences.empty() || key < fences.front()) return kNoPage;
  // Last fence <= key, by halving [base, base + n): base[0] <= key
  // throughout, and each step is one conditional move, not a branch.
  const Key* base = fences.data();
  for (size_t n = fences.size(); n > 1; n -= n / 2) {
    base = base[n / 2] <= key ? base + n / 2 : base;
  }
  return static_cast<size_t>(base - fences.data());
}

Key TieredIndex::PageLimit(size_t page) const {
  return page + 1 < run_.fences.size() ? run_.fences[page + 1]
                                       : run_.max_key;
}

// Probes take no lock: only writers (BulkLoad/Merge/Recover) swap the
// fences and heat arrays, and writers never run alongside readers. A
// page below the fence count implies an installed run and heat arrays.
void TieredIndex::RecordPageRead(size_t page) const {
  if (page < run_.fences.size()) CHAMELEON_HEAT_HIT(heat_reads_[page]);
}

void TieredIndex::RecordRunWrite(Key key) const {
  const size_t page = CandidatePage(key);
  if (page < run_.fences.size()) CHAMELEON_HEAT_HIT(heat_writes_[page]);
}

bool TieredIndex::RunLookup(Key key, Value* value) const {
  const size_t page = CandidatePage(key);
  if (page == kNoPage) return false;
  tiered::PageRef ref = pool_->Pin(page);
  RecordPageRead(page);
  const KeyValue* entries = tiered::PageFile::PageEntries(ref.data());
  const uint32_t count = tiered::PageFile::PageCount(ref.data());
  const size_t slot = tiered::PageLowerBound(
      entries, count, key, run_.fences[page], PageLimit(page));
  if (slot == count || entries[slot].key != key) return false;
  if (value != nullptr) *value = entries[slot].value;
  return true;
}

bool TieredIndex::ScanRun(Key lo, Key hi, bool merging,
                          ChunkSink visit) const {
  // Every page whose key interval intersects [lo, hi], one at a time: a
  // read scan pins each through the pool, a merge reads each straight
  // from the file (sequential I/O, no pool pollution).
  if (run_.fences.empty() || lo > hi || lo > run_.max_key) return true;
  size_t page = CandidatePage(lo);
  if (page == kNoPage) page = 0;  // lo precedes the first fence
  std::unique_ptr<tiered::Page> buffer;
  if (merging) buffer = std::make_unique<tiered::Page>();
  for (; page < run_.fences.size() && run_.fences[page] <= hi; ++page) {
    tiered::PageRef ref;
    const void* data = buffer.get();
    if (merging) {
      if (!run_.file->ReadPage(page, buffer.get())) return false;
      CHAMELEON_STAT_INC(kTieredPageReads);
    } else {
      ref = pool_->Pin(page);
      RecordPageRead(page);
      data = ref.data();
    }
    // Only the first page can start past entry 0, and a page whose
    // limit is at most hi is taken whole (otherwise hi < limit, so
    // hi + 1 cannot wrap).
    const KeyValue* entries = tiered::PageFile::PageEntries(data);
    const size_t count = tiered::PageFile::PageCount(data);
    const Key first = run_.fences[page];
    const Key limit = PageLimit(page);
    const size_t begin =
        lo <= first ? 0
                    : tiered::PageLowerBound(entries, count, lo, first, limit);
    const size_t end =
        limit <= hi
            ? count
            : tiered::PageLowerBound(entries, count, hi + 1, first, limit);
    visit(RunChunk(entries + begin, entries + end));
  }
  return true;
}

size_t TieredIndex::SizeBytes() const {
  size_t bytes = OverlayBytes() + run_.fences.size() * sizeof(Key);
  if (run_.file != nullptr) bytes += run_.file->SizeBytes();
  if (pool_ != nullptr) bytes += pool_->frames() * tiered::kPageSize;
  return bytes;
}

IndexStats TieredIndex::Stats() const {
  // The disk tier is a two-level structure (fence array over leaf
  // pages) with exact search inside a page: height 2, error 0. The
  // delta joins it as a sub-index at the same level, with an average
  // height of at least 1. An empty stack reports height 1.
  IndexStats delta_stats = delta().Stats();
  const size_t n_disk = run_.entries - tombstone_count();
  const size_t n_delta = delta_entries();
  if (n_disk + n_delta == 0) {
    delta_stats = IndexStats{.num_nodes = delta_stats.num_nodes};
  }
  delta_stats.avg_height =
      n_delta > 0 ? std::max(delta_stats.avg_height, 1.0) : 0.0;
  IndexStatsTally tally;
  tally.AddNodes(disk_pages() + 1);
  tally.AddLeaf(n_disk > 0 ? 2 : 1, n_disk);
  tally.AddSubIndex(delta_stats, n_delta);
  return tally.Finish();
}

obs::Heatmap TieredIndex::HeatmapSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(heat_mu_);
  const std::vector<Key>& fences = run_.fences;
  obs::Heatmap map;
  map.reserve(fences.size());
  for (size_t i = 0; i < fences.size(); ++i) {
    obs::UnitHeat unit;
    unit.lo = fences[i];
    unit.hi = i + 1 < fences.size() ? fences[i + 1] : run_.max_key + 1;
    unit.reads = heat_reads_[i].load(std::memory_order_relaxed);
    unit.writes = heat_writes_[i].load(std::memory_order_relaxed);
    map.push_back(unit);
  }
  return map;
}

bool TieredIndex::MergeDue() const {
  return delta_entries() + tombstone_count() >= options_.merge_threshold;
}

bool TieredIndex::Recover() {
  if (run_.file != nullptr) return false;  // already loaded
  Run run;
  run.file = tiered::PageFile::Open(MainPath(dir_));
  if (run.file == nullptr) return false;

  // Rebuild the fence router with one sequential scan of the run,
  // validating every page's checksum on the way.
  auto buf = std::make_unique<tiered::Page>();
  for (uint64_t page = 0; page < run.file->num_pages(); ++page) {
    if (!run.file->ReadPage(page, buf.get())) return false;
    const uint32_t count = tiered::PageFile::PageCount(buf.get());
    const KeyValue* entries = tiered::PageFile::PageEntries(buf.get());
    run.fences.push_back(entries[0].key);
    run.entries += count;
    run.max_key = entries[count - 1].key;
  }
  if (run.entries != run.file->header_entries()) {
    std::fprintf(stderr,
                 "tiered: %s header claims %llu entries but pages hold %llu\n",
                 MainPath(dir_).c_str(),
                 static_cast<unsigned long long>(run.file->header_entries()),
                 static_cast<unsigned long long>(run.entries));
    return false;
  }
  next_ = std::move(run);
  InstallRun();
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
  if (!ReadSpecDirectory(node, &dir, error)) return nullptr;
  TieredOptions options;
  for (const SpecOption& option : node.options) {
    if (option.key.empty()) continue;  // the directory
    if (option.key == "frames" || option.key == "merge") {
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
  // Recover() reopens the run alone: a WAL below Disk would acknowledge
  // delta writes and tombstones that a crash then loses.
  for (const SpecNode* inner = node.inner.get(); inner != nullptr;
       inner = inner->inner.get()) {
    if (inner->name == "Durable") {
      error->pos = inner->pos;
      error->message =
          "Durable below Disk is not supported (Disk does not recover its "
          "delta); put it outside: Durable(<dir>):Disk(<dir>):<spec>";
      return nullptr;
    }
  }
  dir += ctx.dir_suffix;
  std::unique_ptr<KvIndex> delta = BuildIndexSpec(*node.inner, ctx, error);
  if (delta == nullptr) return nullptr;
  return std::make_unique<TieredIndex>(std::move(dir), options,
                                       std::move(delta));
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
