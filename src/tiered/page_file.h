#ifndef CHAMELEON_TIERED_PAGE_FILE_H_
#define CHAMELEON_TIERED_PAGE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/util/common.h"

namespace chameleon::tiered {

/// On-disk leaf file format (DESIGN.md §14). A page file is a single
/// flat file of fixed 4 KiB pages:
///
///   page 0          file header (magic, version, page size, logical
///                   entry count, CRC32C)
///   pages 1..N      data pages, each a sorted KeyValue run:
///
///     offset 0      uint32 crc32c over bytes [8, kPageSize) — the
///                   whole page after the checksum+count words, so a
///                   torn or bit-rotted page is detected on read
///     offset 4      uint32 count — live entries in this page
///     offset 8      uint64 page_seq — the page's own 1-based index,
///                   guarding against misdirected reads/writes
///     offset 16     KeyValue[count], keys ascending; the remainder of
///                   the page is zero (and covered by the crc)
///
/// Pages are written with pwrite and read with pread at page-aligned
/// offsets. All multi-byte fields are little-endian native — the file is
/// host-format, like the WAL and snapshot files in src/storage/.
inline constexpr size_t kPageSize = 4096;

/// Geometry/usage numbers every page holds.
inline constexpr size_t kPageHeaderBytes = 16;

/// KeyValue entries that fit one data page (255).
inline constexpr size_t kEntriesPerPage =
    (kPageSize - kPageHeaderBytes) / sizeof(KeyValue);

/// One page-sized buffer; `std::make_unique<Page>()` (or `Page[]`) gives
/// a zeroed, page-aligned one.
struct alignas(kPageSize) Page {
  uint8_t bytes[kPageSize];
};

/// A page-aligned on-disk leaf file. Not thread-safe by itself; readers
/// go through the buffer pool, and a run is written by one thread before
/// it is installed (pread at distinct offsets is harmless to interleave).
class PageFile {
 public:
  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Creates (truncating any previous file) a page file at `path` with
  /// zero data pages. Nothing is durable until SyncHeader. Diagnostics
  /// call the file `name` (default: `path`): a run written under
  /// CommitFile's temp name is named after the live file it becomes.
  /// Returns nullptr on I/O error (diagnostic on stderr).
  static std::unique_ptr<PageFile> Create(const std::string& path,
                                          std::string name = "");

  /// Opens an existing page file and validates its header (magic,
  /// version, a page size of kPageSize, CRC). Returns nullptr when the
  /// file is missing or invalid.
  static std::unique_ptr<PageFile> Open(const std::string& path);

  /// Reads data page `page_id` (0-based) into `buf` (kPageSize bytes)
  /// and verifies its checksum and page_seq. Returns false on I/O
  /// error, short read, or corruption.
  bool ReadPage(uint64_t page_id, void* buf);

  /// Finalizes `buf` as data page `page_id` (stamps page_seq, computes
  /// the checksum over [8, kPageSize)) and pwrites it, growing the file
  /// as needed. Every page below num_pages() must be written before the
  /// run is read (a hole fails its checksum). The caller must have set
  /// the count word at offset 4 and the entries.
  bool WritePage(uint64_t page_id, void* buf);

  /// Rewrites the header page with the current num_pages and the given
  /// logical entry count, then fsyncs the file: the one durability point
  /// of a written run.
  bool SyncHeader(uint64_t num_entries);

  uint64_t num_pages() const { return num_pages_; }
  /// Logical entry count recorded by the last SyncHeader (what a
  /// reopened file reports before its pages are scanned).
  uint64_t header_entries() const { return header_entries_; }
  /// Total file bytes (header page + data pages).
  size_t SizeBytes() const { return (num_pages_ + 1) * kPageSize; }

  // --- In-page accessors (shared by pool, index, and tests) ----------------

  static uint32_t PageCount(const void* page) {
    uint32_t count;
    __builtin_memcpy(&count, static_cast<const uint8_t*>(page) + 4,
                     sizeof(count));
    return count;
  }
  static void SetPageCount(void* page, uint32_t count) {
    __builtin_memcpy(static_cast<uint8_t*>(page) + 4, &count, sizeof(count));
  }
  static const KeyValue* PageEntries(const void* page) {
    return reinterpret_cast<const KeyValue*>(
        static_cast<const uint8_t*>(page) + kPageHeaderBytes);
  }
  static KeyValue* PageEntries(void* page) {
    return reinterpret_cast<KeyValue*>(static_cast<uint8_t*>(page) +
                                       kPageHeaderBytes);
  }

 private:
  PageFile(std::string name, int fd) : name_(std::move(name)), fd_(fd) {}

  bool WriteHeader(uint64_t num_entries);
  bool ReadHeader();

  /// The live file's path, for diagnostics.
  std::string name_;
  int fd_ = -1;
  uint64_t num_pages_ = 0;
  uint64_t header_entries_ = 0;
};

}  // namespace chameleon::tiered

#endif  // CHAMELEON_TIERED_PAGE_FILE_H_
