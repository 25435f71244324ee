#include "src/tiered/buffer_pool.h"

#include <cassert>
#include <cstdlib>

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
    : arena_(std::make_unique<Page[]>(frames < 1 ? 1 : frames)),
      frames_(frames < 1 ? 1 : frames) {
  ClearLocked(file);
}

PageRef BufferPool::Pin(uint64_t page_id) {
  std::unique_lock<std::mutex> lock(mu_);
  assert(page_id < page_table_.size() && "page id past the end of the run");
  uint32_t frame = page_table_[page_id];
  bool resident = frame != kNoFrame;
  while (!resident && !TakeFrameLocked(&frame)) {
    // Every frame is pinned. Each holder is a reader between its Pin
    // and its unpin, not waiting here, so a frame frees up.
    ++waiters_;
    unpinned_.wait(lock);
    --waiters_;
    // Another reader may have faulted the page in meanwhile.
    frame = page_table_[page_id];
    resident = frame != kNoFrame;
  }
  Frame& f = frames_[frame];
  uint8_t* data = arena_[frame].bytes;
  if (resident) {
    ++f.pin_count;
    f.ref_bit = true;
    ++hits_;
    CHAMELEON_STAT_INC(kTieredPoolHits);
    return PageRef(this, frame, data);
  }
  ++misses_;
  CHAMELEON_STAT_INC(kTieredPoolMisses);
  // ReadPage has named the file, the page and the failure on stderr.
  if (!file_->ReadPage(page_id, data)) std::abort();
  ++page_reads_;
  CHAMELEON_STAT_INC(kTieredPageReads);

  f.page_id = page_id;
  f.pin_count = 1;
  f.ref_bit = true;
  f.valid = true;
  page_table_[page_id] = frame;
  return PageRef(this, frame, data);
}

bool BufferPool::TakeFrameLocked(uint32_t* frame_out) {
  // CLOCK sweep: clear reference bits until an unpinned, unreferenced
  // victim turns up. Two full revolutions visit every unpinned frame at
  // least twice, so failure means everything is pinned. After a Reset
  // every frame is unfilled and unreferenced and the hand is at 0, so a
  // cold pool hands out frames 0, 1, 2, ... one step each.
  for (size_t step = 0; step < 2 * frames_.size(); ++step) {
    const auto victim = static_cast<uint32_t>(clock_hand_);
    Frame& f = frames_[victim];
    if (++clock_hand_ == frames_.size()) clock_hand_ = 0;
    if (f.pin_count > 0) continue;
    if (f.ref_bit) {
      f.ref_bit = false;
      continue;
    }
    // A frame that never held a page has no table entry: page_id is
    // stale or 0 there, and clearing it would orphan a resident page.
    if (f.valid) {
      page_table_[f.page_id] = kNoFrame;
      f.valid = false;
      ++evictions_;
      CHAMELEON_STAT_INC(kTieredPageEvictions);
    }
    *frame_out = victim;
    return true;
  }
  return false;
}

void BufferPool::Unpin(size_t frame) {
  Frame& f = frames_[frame];
  assert(f.pin_count > 0);
  if (--f.pin_count == 0 && waiters_ > 0) unpinned_.notify_all();
}

void BufferPool::Reset(PageFile* file) {
  std::lock_guard<std::mutex> lock(mu_);
  ClearLocked(file);
}

void BufferPool::ClearLocked(PageFile* file) {
  for (Frame& f : frames_) {
    assert(f.pin_count == 0);
    f.page_id = 0;
    f.ref_bit = false;
    f.valid = false;
  }
  page_table_.assign(file->num_pages(), kNoFrame);
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
