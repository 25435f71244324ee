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
      frames_(frames < 1 ? 1 : frames),
      small_share_(frames_.size() / 10 < 1 ? 1 : frames_.size() / 10),
      ghost_len_(frames_.size() - small_share_) {
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
    if (f.count < kMaxCount) ++f.count;
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
  f.count = 0;
  // A page the small queue evicted recently was evicted too early: it
  // goes to the main queue this time.
  const bool ghost = InGhostLocked(page_id);
  if (ghost) ghost_stamp_[page_id] = 0;
  PushLocked(frame, /*main=*/ghost);
  page_table_[page_id] = frame;
  return PageRef(this, frame, data);
}

bool BufferPool::TakeFrameLocked(uint32_t* frame_out) {
  // After a Reset every frame is unfilled, and a cold pool hands them
  // out in order before it evicts anything.
  if (filled_ < frames_.size()) {
    *frame_out = static_cast<uint32_t>(filled_++);
    return true;
  }
  // A pinned head goes back to the tail of its queue unchanged; `seen`
  // counts the pinned heads since the last unpinned one, so reaching
  // the queue's size means every frame in it is pinned. Each unpinned
  // main frame is lowered at most kMaxCount times and each small frame
  // moves at most once, so the search is O(frames).
  auto evict = [this, frame_out](uint32_t victim, bool from_small) {
    const uint64_t page_id = frames_[victim].page_id;
    if (from_small) ghost_stamp_[page_id] = ++ghost_seq_;
    page_table_[page_id] = kNoFrame;
    ++evictions_;
    CHAMELEON_STAT_INC(kTieredPageEvictions);
    *frame_out = victim;
    return true;
  };
  // The small queue, while it holds its share: a head hit since its
  // fault moves to the main queue, any other is the victim.
  for (size_t seen = 0; small_.size >= small_share_ && seen < small_.size;) {
    const uint32_t victim = PopLocked(/*main=*/false);
    const Frame& f = frames_[victim];
    if (f.pin_count > 0) {
      PushLocked(victim, /*main=*/false);
      ++seen;
    } else if (f.count > 0) {
      PushLocked(victim, /*main=*/true);
    } else {
      return evict(victim, /*from_small=*/true);
    }
  }
  // The main queue: a head with hits left spends one and is reinserted.
  for (size_t seen = 0; seen < main_.size;) {
    const uint32_t victim = PopLocked(/*main=*/true);
    Frame& f = frames_[victim];
    if (f.pin_count > 0) {
      ++seen;
    } else if (f.count > 0) {
      --f.count;
      seen = 0;
    } else {
      return evict(victim, /*from_small=*/false);
    }
    PushLocked(victim, /*main=*/true);
  }
  // Every main frame is pinned and the small queue is below its share
  // (or pinned throughout, found above): its first unpinned frame goes.
  for (size_t seen = 0; seen < small_.size; ++seen) {
    const uint32_t victim = PopLocked(/*main=*/false);
    if (frames_[victim].pin_count == 0) return evict(victim, true);
    PushLocked(victim, /*main=*/false);
  }
  return false;
}

void BufferPool::PushLocked(uint32_t frame, bool main) {
  Queue& q = main ? main_ : small_;
  frames_[frame].next = kNoFrame;
  if (q.tail == kNoFrame) {
    q.head = frame;
  } else {
    frames_[q.tail].next = frame;
  }
  q.tail = frame;
  ++q.size;
}

uint32_t BufferPool::PopLocked(bool main) {
  Queue& q = main ? main_ : small_;
  assert(q.size > 0);
  const uint32_t frame = q.head;
  q.head = frames_[frame].next;
  if (q.head == kNoFrame) q.tail = kNoFrame;
  --q.size;
  return frame;
}

bool BufferPool::InGhostLocked(uint64_t page_id) const {
  const uint64_t stamp = ghost_stamp_[page_id];
  return stamp != 0 && ghost_seq_ - stamp < ghost_len_;
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
    f = Frame{};
  }
  filled_ = 0;
  small_ = Queue{};
  main_ = Queue{};
  page_table_.assign(file->num_pages(), kNoFrame);
  ghost_stamp_.assign(file->num_pages(), 0);
  ghost_seq_ = 0;
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
