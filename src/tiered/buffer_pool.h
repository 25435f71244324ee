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

/// A fixed-budget, read-only page cache over one PageFile: CLOCK
/// (second-chance) eviction and pin/unpin via PageRef. Runs are written
/// straight to their file and installed whole (TieredIndex's WriteRun),
/// so no frame is ever dirty and eviction never writes back. CLOCK picks
/// every frame, unfilled ones included, and a direct-mapped table (page
/// id -> frame, sized from the file) finds a resident page, so a fault
/// costs about one pread plus its CRC check.
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

  /// Pins `page_id`, faulting it from disk on a miss into a CLOCK
  /// victim (evicting its page, if it holds one); waits while every
  /// frame is pinned. `page_id` must be below the file's page count.
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

  struct Frame {
    uint64_t page_id = 0;
    uint32_t pin_count = 0;
    bool ref_bit = false;
    bool valid = false;
  };

  // Require mu_ held (or, for the constructor's ClearLocked, sole access).
  bool TakeFrameLocked(uint32_t* frame_out);
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
  size_t clock_hand_ = 0;

  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t page_reads_ = 0;
};

}  // namespace chameleon::tiered

#endif  // CHAMELEON_TIERED_BUFFER_POOL_H_
