#ifndef CHAMELEON_TIERED_BUFFER_POOL_H_
#define CHAMELEON_TIERED_BUFFER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/tiered/page_file.h"

namespace chameleon::tiered {

class BufferPool;

/// RAII pin on a pooled page frame. While live, the frame cannot be
/// evicted and `data()` stays valid. Movable, not copyable; a
/// default-constructed or moved-from PageRef pins nothing.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  ~PageRef() { Release(); }

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  const void* data() const { return data_; }

  /// Unpins early (the destructor is the usual path).
  void Release();

 private:
  friend class BufferPool;
  PageRef(BufferPool* pool, size_t frame, const void* data)
      : pool_(pool), frame_(frame), data_(data) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  const void* data_ = nullptr;
};

/// Point-in-time pool statistics (also mirrored into the global
/// StatsRegistry counters tiered_pool_hits / tiered_page_reads / ...).
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t page_reads = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// A fixed-budget, read-only page cache over one PageFile: S3-FIFO
/// eviction (Yang et al., "FIFO queues are all you need for cache
/// eviction", SOSP 2023) and pin/unpin via PageRef. Runs are written
/// straight to their file and installed whole (TieredIndex's WriteRun),
/// so no frame is ever dirty and eviction never writes back.
///
/// S3-FIFO keeps the frames in two FIFO queues: a small one holding 10%
/// of them (at least 1), where a page faulted for the first time lands,
/// and a main one holding the rest. A hit only raises the frame's 2-bit
/// access count. The small queue's head, once the queue holds its
/// share, moves to the main queue if it was hit since its fault and is
/// evicted otherwise, its page id going into a ghost FIFO as long as
/// the main queue; a miss on a ghost page enters the main queue
/// directly. The main queue's head is reinserted at its tail with its
/// count lowered by one until the count is 0, and then evicted. So a
/// sweep over cold pages flushes the small queue only, a page that
/// earns hits survives the sweep in the main queue, and a hotspot that
/// moves reaches the main queue through the ghost FIFO within one more
/// fault per page. A cold pool hands out its frames 0, 1, 2, ... before
/// it evicts anything, and a direct-mapped table (page id -> frame,
/// sized from the file) finds a resident page, so a fault costs about
/// one pread plus its CRC check.
///
/// Thread safety: every public operation takes the pool mutex, so
/// concurrent read-only replay threads (`--rthreads`) can Pin/Release
/// freely, with more threads than frames too: a Pin that finds every
/// frame pinned waits for an unpin. That cannot deadlock as long as a
/// thread holds at most one pin while it calls Pin, which every reader
/// (TieredIndex's lookups and scans) does.
class BufferPool {
 public:
  /// `frames` is clamped to at least 1. The pool does not own `file`.
  BufferPool(PageFile* file, size_t frames);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins `page_id`, faulting it from disk on a miss into an unfilled
  /// frame or an S3-FIFO victim; waits only while every frame is
  /// pinned. `page_id` must be below the file's page count.
  /// A page that fails its read (I/O error, CRC or page_seq mismatch)
  /// aborts the process, naming the file and the page: a lookup has no
  /// error channel, and answering "absent" for a key that is on disk
  /// would be a wrong answer. Recover() is where a damaged run is
  /// rejected cleanly.
  PageRef Pin(uint64_t page_id);

  /// Drops all cached frames (asserting none are pinned) and retargets
  /// the pool at `file` — called when a new page run is installed.
  void Reset(PageFile* file);

  BufferPoolStats stats() const;
  size_t frames() const { return frames_.size(); }

 private:
  static constexpr uint32_t kNoFrame = UINT32_MAX;
  static constexpr uint8_t kMaxCount = 3;

  struct Frame {
    uint64_t page_id = 0;
    uint32_t pin_count = 0;
    uint32_t next = kNoFrame;  // the frame behind this one in its queue
    uint8_t count = 0;         // +1 per hit up to kMaxCount, -1 per
                               // pass through the main queue's head
  };

  /// A FIFO of frames, linked through Frame::next.
  struct Queue {
    uint32_t head = kNoFrame;
    uint32_t tail = kNoFrame;
    size_t size = 0;
  };

  // Require mu_ held (or, for the constructor's ClearLocked, sole access).
  bool TakeFrameLocked(uint32_t* frame_out);
  void PushLocked(uint32_t frame, bool main);
  uint32_t PopLocked(bool main);
  bool InGhostLocked(uint64_t page_id) const;
  void ClearLocked(PageFile* file);  // empties every frame, retargets
  void Unpin(size_t frame);          // called by PageRef

  friend class PageRef;

  mutable std::mutex mu_;
  /// Signalled by an unpin that frees a frame while a Pin waits.
  std::condition_variable unpinned_;
  size_t waiters_ = 0;
  PageFile* file_;
  std::unique_ptr<Page[]> arena_;
  std::vector<Frame> frames_;
  std::vector<uint32_t> page_table_;  // page id -> frame, or kNoFrame
  size_t filled_ = 0;                 // frames [0, filled_) hold a page
  size_t small_share_;                // 10% of the frames, at least 1
  Queue small_;
  Queue main_;
  /// The ghost FIFO, as stamps: a page's entry is the value of
  /// ghost_seq_ just after the small queue last evicted it (0: not in
  /// the ghost FIFO), and it stays in while fewer than ghost_len_ later
  /// small-queue evictions have followed it.
  std::vector<uint64_t> ghost_stamp_;
  uint64_t ghost_seq_ = 0;
  size_t ghost_len_;  // as long as the main queue: frames - small_share_

  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t page_reads_ = 0;
};

}  // namespace chameleon::tiered

#endif  // CHAMELEON_TIERED_BUFFER_POOL_H_
