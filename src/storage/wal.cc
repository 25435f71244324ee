#include "src/storage/wal.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <thread>

#include "src/obs/phase_timer.h"
#include "src/obs/stats.h"
#include "src/util/crc32c.h"
#include "src/util/io.h"

namespace chameleon {
namespace {

constexpr uint32_t kSegmentMagic = 0x4357414C;  // "CWAL"
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kSegmentHeaderSize = 4 + 4 + 8;  // magic, version, seq
constexpr size_t kRecordHeaderSize = 4 + 4 + 1;   // crc, len, type

}  // namespace

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {}

Wal::~Wal() { Close(); }

std::string Wal::SegmentPath(uint64_t seq) const {
  return NumberedPath(dir_, "wal-", seq, ".wal");
}

std::vector<uint64_t> Wal::ListSegments() const {
  return ListNumbered(dir_, "wal-", ".wal");
}

bool Wal::OpenSegmentLocked(uint64_t seq) {
  file_ = std::fopen(SegmentPath(seq).c_str(), "wb");
  if (file_ == nullptr) {
    open_.store(false, std::memory_order_release);
    return false;
  }
  current_seq_.store(seq, std::memory_order_release);
  segment_bytes_written_.store(0, std::memory_order_release);
  synced_segment_bytes_ = 0;
  appends_since_sync_ = 0;
  const bool ok = std::fwrite(&kSegmentMagic, 4, 1, file_) == 1 &&
                  std::fwrite(&kSegmentVersion, 4, 1, file_) == 1 &&
                  std::fwrite(&seq, 8, 1, file_) == 1;
  if (!ok) {
    std::fclose(file_);
    file_ = nullptr;
    open_.store(false, std::memory_order_release);
    return false;
  }
  segment_bytes_written_.store(kSegmentHeaderSize, std::memory_order_release);
  open_.store(true, std::memory_order_release);
  SyncDirOf(SegmentPath(seq));  // the new segment's directory entry
  return true;
}

bool Wal::Open() {
  std::lock_guard<std::mutex> append_lock(append_mu_);
  if (file_ != nullptr) return true;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return false;
  // Never append into a possibly-torn tail: start a fresh segment after
  // the highest existing one.
  const std::vector<uint64_t> seqs = ListSegments();
  std::lock_guard<std::mutex> sync_lock(sync_mu_);
  return OpenSegmentLocked(seqs.empty() ? 0 : seqs.back() + 1);
}

void Wal::CloseLocked() {
  if (file_ == nullptr) return;
  std::fflush(file_);
  if (options_.fsync != FsyncPolicy::kNone) {
    ::fsync(::fileno(file_));
    synced_segment_bytes_ =
        segment_bytes_written_.load(std::memory_order_relaxed);
    // The close fsync commits every record buffered so far, so pending
    // CommitUpTo callers (and a Sync after a rotation) need no second
    // sync of the retired segment.
    committed_records_.store(appended_records_.load(std::memory_order_relaxed),
                             std::memory_order_release);
  }
  std::fclose(file_);
  file_ = nullptr;
  open_.store(false, std::memory_order_release);
}

void Wal::Close() {
  std::lock_guard<std::mutex> append_lock(append_mu_);
  std::lock_guard<std::mutex> sync_lock(sync_mu_);
  CloseLocked();
}

bool Wal::DoSyncLocked(uint64_t flushed_bytes) {
  if (file_ == nullptr) return false;
  // The leader's actual durability work: fflush + (simulated-latency)
  // fsync. Nested inside the leader's kGroupCommitWait span, so the
  // two phases are informational siblings, not additive.
  CHAMELEON_PHASE_SPAN(kFsync);
  if (std::fflush(file_) != 0) return false;
  const int64_t delay_us = sync_delay_us_.load(std::memory_order_relaxed);
  if (delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
  if (fsync_fail_in_ > 0 && --fsync_fail_in_ == 0) {
    return false;  // injected fault: the k-th fsync "fails"
  }
  if (::fsync(::fileno(file_)) != 0) return false;
  // `flushed_bytes` was captured before the fflush, so it only counts
  // records fully buffered by then — a conservative crash barrier when
  // appenders raced the flush.
  if (flushed_bytes > synced_segment_bytes_) {
    synced_segment_bytes_ = flushed_bytes;
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  CHAMELEON_STAT_INC(kWalFsyncs);
  return true;
}

bool Wal::CommitUpTo(uint64_t seq) {
  // Fast path: another appender's fsync (or a segment close) already
  // covered this commit sequence number.
  if (committed_records_.load(std::memory_order_acquire) >= seq) return true;
  std::lock_guard<std::mutex> sync_lock(sync_mu_);
  if (committed_records_.load(std::memory_order_relaxed) >= seq) return true;
  // Leader: commit everything appended so far in one fsync. Appends
  // bump appended_records_ only after their single fwrite completes, so
  // every record below `target` is in the stdio buffer before our
  // fflush.
  const uint64_t target = appended_records_.load(std::memory_order_acquire);
  const uint64_t flushed =
      segment_bytes_written_.load(std::memory_order_acquire);
  if (!DoSyncLocked(flushed)) return false;
  committed_records_.store(target, std::memory_order_release);
  return true;
}

bool Wal::Sync() {
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> append_lock(append_mu_);
    if (file_ == nullptr) return false;
    appends_since_sync_ = 0;
    seq = appended_records_.load(std::memory_order_relaxed);
  }
  if (seq == 0) return true;
  return CommitUpTo(seq);
}

bool Wal::Rotate() {
  std::lock_guard<std::mutex> append_lock(append_mu_);
  if (file_ == nullptr) return false;
  std::lock_guard<std::mutex> sync_lock(sync_mu_);
  const uint64_t next = current_seq_.load(std::memory_order_relaxed) + 1;
  CloseLocked();
  return OpenSegmentLocked(next);
}

bool Wal::Append(uint8_t type, const void* payload, size_t payload_len) {
  const size_t record_bytes = kRecordHeaderSize + payload_len;
  uint64_t my_seq = 0;
  bool need_commit = false;
  {
    // Record assembly + buffered fwrite, including append_mu_ wait.
    CHAMELEON_PHASE_SPAN(kWalAppend);
    // try_to_lock first purely for observability: a miss means another
    // appender holds the buffer right now — the direct evidence that
    // group commit is seeing real write concurrency.
    std::unique_lock<std::mutex> append_lock(append_mu_, std::try_to_lock);
    if (!append_lock.owns_lock()) {
      CHAMELEON_STAT_INC(kWalConcurrentAppends);
      append_lock.lock();
    }
    if (file_ == nullptr) return false;
    if (segment_bytes_written_.load(std::memory_order_relaxed) >=
        options_.segment_bytes) {
      std::lock_guard<std::mutex> sync_lock(sync_mu_);
      const uint64_t next = current_seq_.load(std::memory_order_relaxed) + 1;
      CloseLocked();
      if (!OpenSegmentLocked(next)) return false;
    }
    // Assemble the whole record [crc][len][type][payload] and emit it
    // with a single fwrite: a concurrent group-commit leader may fflush
    // at any moment, and one write keeps half-assembled records out of
    // the flushed prefix. The checksum covers [len][type][payload].
    const uint32_t len = static_cast<uint32_t>(payload_len);
    uint8_t stack_buf[64];
    std::vector<uint8_t> heap_buf;
    uint8_t* buf = stack_buf;
    if (record_bytes > sizeof(stack_buf)) {
      heap_buf.resize(record_bytes);
      buf = heap_buf.data();
    }
    std::memcpy(buf + 4, &len, 4);
    buf[8] = type;
    if (payload_len > 0) std::memcpy(buf + 9, payload, payload_len);
    const uint32_t crc = Crc32c(buf + 4, 5 + payload_len);
    std::memcpy(buf, &crc, 4);
    if (std::fwrite(buf, 1, record_bytes, file_) != record_bytes) {
      return false;
    }
    segment_bytes_written_.fetch_add(record_bytes, std::memory_order_release);
    appended_bytes_.fetch_add(record_bytes, std::memory_order_relaxed);
    // The commit sequence number: assigned after the buffered write, so
    // a leader that reads appended_records_ == s knows records 1..s are
    // all in the stdio buffer.
    my_seq = appended_records_.fetch_add(1, std::memory_order_release) + 1;
    switch (options_.fsync) {
      case FsyncPolicy::kAlways:
        need_commit = true;
        break;
      case FsyncPolicy::kEveryN:
        if (++appends_since_sync_ >= options_.fsync_every_n) {
          appends_since_sync_ = 0;
          need_commit = true;
        }
        break;
      case FsyncPolicy::kNone:
        break;
    }
  }
  CHAMELEON_STAT_INC(kWalAppends);
  CHAMELEON_STAT_ADD(kWalBytes, record_bytes);
  if (need_commit) {
    // Waiting for (or leading) the group commit covering my_seq.
    CHAMELEON_PHASE_SPAN(kGroupCommitWait);
    return CommitUpTo(my_seq);
  }
  return true;
}

size_t Wal::TruncateBefore(uint64_t seq) {
  std::lock_guard<std::mutex> append_lock(append_mu_);
  size_t removed = 0;
  const uint64_t live = current_seq_.load(std::memory_order_relaxed);
  for (uint64_t s : ListSegments()) {
    if (s >= seq) break;
    if (file_ != nullptr && s == live) continue;  // never the live one
    std::error_code ec;
    if (std::filesystem::remove(SegmentPath(s), ec)) ++removed;
  }
  if (removed > 0) SyncDirOf(SegmentPath(seq));  // dir_, every segment's home
  return removed;
}

void Wal::InjectFsyncFailure(size_t kth) {
  std::lock_guard<std::mutex> sync_lock(sync_mu_);
  fsync_fail_in_ = kth;
}

void Wal::InjectSyncDelayForTest(std::chrono::microseconds delay) {
  sync_delay_us_.store(delay.count(), std::memory_order_relaxed);
}

void Wal::SimulateCrash() {
  std::lock_guard<std::mutex> append_lock(append_mu_);
  std::lock_guard<std::mutex> sync_lock(sync_mu_);
  if (file_ == nullptr) return;
  // fclose flushes the stdio buffer to the kernel, so emulate the lost
  // page cache by truncating back to the last fsync barrier afterwards.
  // Earlier (closed) segments are assumed written back — a crash's
  // page-cache loss window in practice spans only recent writes.
  const std::string path =
      SegmentPath(current_seq_.load(std::memory_order_relaxed));
  const uint64_t keep = synced_segment_bytes_;
  std::fclose(file_);
  file_ = nullptr;
  open_.store(false, std::memory_order_release);
  (void)TruncateFileTo(path, keep);
}

bool Wal::TruncateFileTo(const std::string& path, uint64_t offset) {
  return ::truncate(path.c_str(), static_cast<off_t>(offset)) == 0;
}

Wal::ReplayStatus Wal::Replay(uint64_t from_seq, const ReplayFn& fn,
                              size_t* replayed) const {
  if (replayed != nullptr) *replayed = 0;
  std::vector<uint64_t> seqs = ListSegments();
  seqs.erase(std::remove_if(seqs.begin(), seqs.end(),
                            [&](uint64_t s) { return s < from_seq; }),
             seqs.end());
  size_t count = 0;
  for (size_t si = 0; si < seqs.size(); ++si) {
    const bool last_segment = si + 1 == seqs.size();
    std::vector<uint8_t> data;
    if (!ReadWholeFile(SegmentPath(seqs[si]), &data)) {
      return ReplayStatus::kIoError;
    }

    // Segment header. A header that extends past EOF is a torn segment
    // creation when it is the last segment; anything else is corruption.
    if (data.size() < kSegmentHeaderSize) {
      if (last_segment) break;
      return ReplayStatus::kCorrupt;
    }
    uint32_t magic = 0, version = 0;
    uint64_t seq = 0;
    std::memcpy(&magic, data.data(), 4);
    std::memcpy(&version, data.data() + 4, 4);
    std::memcpy(&seq, data.data() + 8, 8);
    if (magic != kSegmentMagic || version != kSegmentVersion ||
        seq != seqs[si]) {
      return ReplayStatus::kCorrupt;
    }

    size_t off = kSegmentHeaderSize;
    while (off < data.size()) {
      // Incomplete record header or payload: torn tail iff this is the
      // final segment (nothing can follow an incomplete record).
      bool torn = false;
      uint32_t crc = 0, len = 0;
      size_t end = data.size();
      if (off + kRecordHeaderSize > data.size()) {
        torn = true;
      } else {
        std::memcpy(&crc, data.data() + off, 4);
        std::memcpy(&len, data.data() + off + 4, 4);
        end = off + kRecordHeaderSize + len;
        if (end > data.size() || end < off) {
          torn = true;
        } else if (Crc32c(data.data() + off + 4, 5 + len) != crc) {
          // A checksum failure with nothing after the record is a torn
          // final append; with live data following it, the log was
          // already durable past this point — mid-log corruption.
          if (end == data.size()) {
            torn = true;
          } else {
            return ReplayStatus::kCorrupt;
          }
        }
      }
      if (torn) {
        if (last_segment) {
          off = data.size();  // stop cleanly before the torn record
          break;
        }
        return ReplayStatus::kCorrupt;
      }
      fn(data[off + 8], std::span<const uint8_t>(data.data() + off + 9, len));
      ++count;
      off = end;
    }
  }
  if (replayed != nullptr) *replayed = count;
  CHAMELEON_STAT_ADD(kWalReplayedRecords, count);
  return ReplayStatus::kOk;
}

}  // namespace chameleon
