#ifndef CHAMELEON_STORAGE_WAL_H_
#define CHAMELEON_STORAGE_WAL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace chameleon {

/// When appended records are forced to stable storage.
enum class FsyncPolicy : uint8_t {
  kAlways,  ///< commit (fflush + fsync) after every append (no acked
            ///< write is lost); concurrent appenders share one fsync
            ///< via the group-commit path
  kEveryN,  ///< fsync once per `fsync_every_n` appends (group commit)
  kNone,    ///< never fsync; data persists only via OS writeback / Close
};

struct WalOptions {
  /// Rotate to a fresh segment once the current one exceeds this.
  size_t segment_bytes = 4u << 20;
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  /// Group-commit window for FsyncPolicy::kEveryN.
  size_t fsync_every_n = 64;
};

/// Segmented append-only write-ahead log.
///
/// A directory holds numbered segment files `wal-<seq>.wal`; each
/// segment starts with a small header (magic, version, sequence number)
/// followed by records of the form
///
///   [crc32c u32][payload_len u32][type u8][payload bytes]
///
/// where the checksum covers everything after itself (length, type, and
/// payload), so a flipped bit anywhere in a record is detected. All
/// integers are raw little-endian, matching core/serialize.cc.
///
/// Replay semantics (the recovery contract): segments are replayed in
/// sequence order. A damaged record is classified by position:
///  * in any non-final segment, or followed by further bytes in the
///    final segment -> mid-log corruption, replay hard-fails
///    (kCorrupt) — the log was durable there, so damage means real
///    data loss and recovery must not silently skip it;
///  * the final record of the final segment (it extends past EOF or its
///    checksum fails with nothing after it) -> torn tail from a crash
///    mid-append, replay stops cleanly before it (kOk).
///
/// Thread model — group commit: Append is safe from multiple threads.
/// An appender buffers its record (one fwrite, so a concurrent flush
/// never sees half a record) and takes a commit sequence number under
/// the append mutex, then — when its fsync policy demands durability —
/// blocks in CommitUpTo: the first thread through the sync mutex
/// becomes the *leader*, captures the latest appended sequence, and
/// issues one fflush+fsync that commits every record buffered so far;
/// followers find their sequence already committed and return without
/// syncing. One fsync thus acks many writers (assert via kWalFsyncs <
/// kWalAppends), while a single-threaded appender keeps exactly the
/// historical one-fsync-per-policy-window behavior. Replay and the
/// maintenance calls (Rotate/TruncateBefore/SimulateCrash) remain
/// exclusive with appends; DurableIndex serializes them behind its
/// write mutex.
class Wal {
 public:
  enum class ReplayStatus { kOk, kCorrupt, kIoError };

  /// One replayed record handed to the Replay callback.
  using ReplayFn =
      std::function<void(uint8_t type, std::span<const uint8_t> payload)>;

  explicit Wal(std::string dir, WalOptions options = {});
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens the log for appending: scans `dir` for existing segments and
  /// starts a *new* segment after the highest existing sequence number
  /// (never appends into a possibly-torn tail). Creates the directory
  /// if missing. Returns false on I/O error.
  bool Open();

  /// Flushes, fsyncs (unless policy is kNone), and closes the current
  /// segment. Open() may be called again afterwards.
  void Close();

  /// Appends one record and applies the fsync policy (for kAlways, and
  /// kEveryN at a window boundary, this blocks until the record's
  /// commit sequence number is covered by an fsync — possibly another
  /// appender's; see the class comment). Returns false on write or
  /// (policy-required) commit failure — the record is then not
  /// acknowledged; it may still surface during replay, which callers
  /// must treat as at-least-once for unacknowledged tail ops.
  bool Append(uint8_t type, const void* payload, size_t payload_len);

  /// Forces every record appended so far to stable storage (an explicit
  /// group-commit barrier under kEveryN/kNone). Returns true without
  /// syncing when everything appended is already committed.
  bool Sync();

  /// Closes the current segment and starts the next one. Checkpoints
  /// rotate first so the snapshot boundary is a segment boundary.
  bool Rotate();

  /// Deletes every segment with sequence < `seq` (they are covered by a
  /// snapshot). Returns the number of segments removed.
  size_t TruncateBefore(uint64_t seq);

  /// Replays records from all segments with sequence >= `from_seq` in
  /// order, invoking `fn` for each intact record. `*replayed` (optional)
  /// receives the record count. See the class comment for the
  /// torn-tail / corruption classification.
  ReplayStatus Replay(uint64_t from_seq, const ReplayFn& fn,
                      size_t* replayed = nullptr) const;

  /// Sequence number of the segment currently being appended to (the
  /// first segment a snapshot taken *now* would not cover).
  uint64_t current_seq() const {
    return current_seq_.load(std::memory_order_acquire);
  }
  /// Record bytes appended over this object's life (all segments; Open
  /// and Close do not reset it).
  uint64_t appended_bytes() const {
    return appended_bytes_.load(std::memory_order_acquire);
  }
  /// Records appended (the latest commit sequence number).
  uint64_t appended_records() const {
    return appended_records_.load(std::memory_order_acquire);
  }
  /// Records covered by an fsync (the committed sequence number).
  uint64_t committed_records() const {
    return committed_records_.load(std::memory_order_acquire);
  }
  /// fsyncs issued by this Wal (local mirror of kWalFsyncs, available
  /// under CHAMELEON_NO_STATS builds too).
  uint64_t fsyncs() const { return fsyncs_.load(std::memory_order_acquire); }
  bool is_open() const { return open_.load(std::memory_order_acquire); }

  /// Sequence numbers of the segments present on disk, ascending.
  std::vector<uint64_t> ListSegments() const;
  std::string SegmentPath(uint64_t seq) const;

  // --- Fault injection (tests and bench_durability --crash-after) -----------

  /// Makes the k-th fsync *from now* (1-based) fail; 0 disables. The
  /// failed fsync consumes the trigger, subsequent ones succeed.
  void InjectFsyncFailure(size_t kth);

  /// Test hook: sleeps this long inside every fsync, widening the
  /// group-commit window so multi-writer fsync sharing is deterministic
  /// on fast filesystems. Set before spawning appenders.
  void InjectSyncDelayForTest(std::chrono::microseconds delay);

  /// Simulates a process crash: discards everything after the last
  /// fsync barrier by truncating the current segment to its last synced
  /// offset, then closes the file descriptor without flushing. Under
  /// FsyncPolicy::kAlways nothing is lost; under kEveryN/kNone the
  /// un-synced tail disappears exactly as it would on power failure.
  /// The Wal is unusable afterwards (recover into a fresh one).
  void SimulateCrash();

  /// Test helper: truncates `path` to `offset` bytes (torn-write
  /// injection). Returns false on error.
  static bool TruncateFileTo(const std::string& path, uint64_t offset);

 private:
  // Lock order: append_mu_ before sync_mu_. Appends hold only
  // append_mu_; the commit leader holds only sync_mu_; segment
  // open/close/rotate hold both, so the leader's FILE* is stable for
  // the duration of its fsync.
  bool OpenSegmentLocked(uint64_t seq);  // both mutexes held
  void CloseLocked();                    // both mutexes held
  bool DoSyncLocked(uint64_t flushed_bytes);  // sync_mu_ held
  /// Blocks until commit sequence `seq` is durable; one leader fsync
  /// may commit many pending records. Called without locks held.
  bool CommitUpTo(uint64_t seq);

  std::string dir_;
  WalOptions options_;

  mutable std::mutex append_mu_;
  mutable std::mutex sync_mu_;
  std::FILE* file_ = nullptr;            // guarded by append_mu_+sync_mu_
                                         // for open/close; stdio locks
                                         // serialize data ops
  std::atomic<bool> open_{false};
  std::atomic<uint64_t> current_seq_{0};
  std::atomic<uint64_t> segment_bytes_written_{0};  // current segment size;
                                                    // written under append_mu_
  uint64_t synced_segment_bytes_ = 0;    // offset covered by the last
                                         // fsync; sync_mu_
  std::atomic<uint64_t> appended_bytes_{0};
  std::atomic<uint64_t> appended_records_{0};   // latest commit seq assigned
  std::atomic<uint64_t> committed_records_{0};  // highest durable commit seq
  std::atomic<uint64_t> fsyncs_{0};
  size_t appends_since_sync_ = 0;        // kEveryN window; append_mu_
  size_t fsync_fail_in_ = 0;             // sync_mu_
  std::atomic<int64_t> sync_delay_us_{0};
};

}  // namespace chameleon

#endif  // CHAMELEON_STORAGE_WAL_H_
