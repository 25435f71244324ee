#include "src/tiered/buffer_pool.h"

#include <cassert>

#include "src/obs/stats.h"

namespace chameleon::tiered {

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    data_ = other.data_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

void PageRef::Release() {
  if (!pool_) return;
  {
    std::lock_guard<std::mutex> lock(pool_->mu_);
    pool_->Unpin(frame_);
  }
  pool_ = nullptr;
  data_ = nullptr;
}

BufferPool::BufferPool(PageFile* file, size_t frames)
    : file_(file),
      arena_(std::make_unique<Page[]>(frames < 1 ? 1 : frames)),
      frames_(frames < 1 ? 1 : frames) {
  page_table_.reserve(frames_.size());
}

PageRef BufferPool::Pin(uint64_t page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    Frame& f = frames_[it->second];
    ++f.pin_count;
    f.ref_bit = true;
    ++hits_;
    CHAMELEON_STAT_INC(kTieredPoolHits);
    return PageRef(this, it->second, arena_[it->second].bytes);
  }
  ++misses_;
  CHAMELEON_STAT_INC(kTieredPoolMisses);

  size_t frame;
  if (!EvictVictimLocked(&frame)) return PageRef();  // every frame pinned

  uint8_t* data = arena_[frame].bytes;
  if (!file_->ReadPage(page_id, data)) return PageRef();
  ++page_reads_;
  CHAMELEON_STAT_INC(kTieredPageReads);

  Frame& f = frames_[frame];
  f.page_id = page_id;
  f.pin_count = 1;
  f.ref_bit = true;
  f.valid = true;
  page_table_[page_id] = frame;
  return PageRef(this, frame, data);
}

bool BufferPool::EvictVictimLocked(size_t* frame_out) {
  // Free frame first (cold start / post-Reset).
  for (size_t i = 0; i < frames_.size(); ++i) {
    if (!frames_[i].valid) {
      *frame_out = i;
      return true;
    }
  }
  // CLOCK sweep: clear reference bits until an unpinned, unreferenced
  // victim turns up. Two full revolutions visit every unpinned frame at
  // least twice, so failure means everything is pinned.
  for (size_t step = 0; step < 2 * frames_.size(); ++step) {
    Frame& f = frames_[clock_hand_];
    size_t victim = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    if (f.pin_count > 0) continue;
    if (f.ref_bit) {
      f.ref_bit = false;
      continue;
    }
    page_table_.erase(f.page_id);
    f.valid = false;
    ++evictions_;
    CHAMELEON_STAT_INC(kTieredPageEvictions);
    *frame_out = victim;
    return true;
  }
  return false;
}

void BufferPool::Unpin(size_t frame) {
  Frame& f = frames_[frame];
  assert(f.pin_count > 0);
  --f.pin_count;
}

void BufferPool::Reset(PageFile* file) {
  std::lock_guard<std::mutex> lock(mu_);
  for ([[maybe_unused]] const Frame& f : frames_) assert(f.pin_count == 0);
  for (Frame& f : frames_) f = Frame{};
  page_table_.clear();
  clock_hand_ = 0;
  file_ = file;
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BufferPoolStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.page_reads = page_reads_;
  return s;
}

}  // namespace chameleon::tiered
