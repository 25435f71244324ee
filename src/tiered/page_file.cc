#include "src/tiered/page_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/util/crc32c.h"

namespace chameleon::tiered {

namespace {

constexpr uint64_t kPageFileMagic = 0x4348414d50414745ULL;  // "CHAMPAGE"
constexpr uint32_t kPageFileVersion = 1;

// Header page layout (page 0):
//   0  u64 magic
//   8  u32 version
//  12  u32 page_size (always kPageSize)
//  16  u64 num_data_pages
//  24  u64 num_entries
//  32  u32 crc32c over bytes [0, 32)
struct FileHeader {
  uint64_t magic;
  uint32_t version;
  uint32_t page_size;
  uint64_t num_data_pages;
  uint64_t num_entries;
  uint32_t crc;
};
static_assert(sizeof(FileHeader) == 40);

bool FullPread(int fd, void* buf, size_t n, off_t off) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  while (n > 0) {
    ssize_t r = ::pread(fd, p, n, off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // short read: page past EOF or truncated file
    p += r;
    off += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

bool FullPwrite(int fd, const void* buf, size_t n, off_t off) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    ssize_t r = ::pwrite(fd, p, n, off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += r;
    off += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

}  // namespace

PageFile::~PageFile() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<PageFile> PageFile::Create(const std::string& path,
                                           std::string name) {
  if (name.empty()) name = path;
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (fd < 0) {
    std::fprintf(stderr, "tiered: create %s failed: %s\n", name.c_str(),
                 std::strerror(errno));
    return nullptr;
  }
  std::unique_ptr<PageFile> file(new PageFile(std::move(name), fd));
  if (!file->WriteHeader(/*num_entries=*/0)) return nullptr;
  return file;
}

std::unique_ptr<PageFile> PageFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return nullptr;
  std::unique_ptr<PageFile> file(new PageFile(path, fd));
  if (!file->ReadHeader()) {
    std::fprintf(stderr, "tiered: %s has an invalid page-file header\n",
                 path.c_str());
    return nullptr;
  }
  return file;
}

bool PageFile::WriteHeader(uint64_t num_entries) {
  auto page = std::make_unique<Page>();
  FileHeader h{};
  h.magic = kPageFileMagic;
  h.version = kPageFileVersion;
  h.page_size = static_cast<uint32_t>(kPageSize);
  h.num_data_pages = num_pages_;
  h.num_entries = num_entries;
  h.crc = Crc32c(&h, offsetof(FileHeader, crc));
  std::memcpy(page.get(), &h, sizeof(h));
  if (!FullPwrite(fd_, page.get(), kPageSize, 0)) {
    std::fprintf(stderr, "tiered: header write to %s failed: %s\n",
                 name_.c_str(), std::strerror(errno));
    return false;
  }
  header_entries_ = num_entries;
  return true;
}

bool PageFile::ReadHeader() {
  FileHeader h;
  if (!FullPread(fd_, &h, sizeof(h), 0)) return false;
  if (h.magic != kPageFileMagic || h.version != kPageFileVersion) return false;
  if (h.crc != Crc32c(&h, offsetof(FileHeader, crc))) return false;
  if (h.page_size != kPageSize) return false;
  num_pages_ = h.num_data_pages;
  header_entries_ = h.num_entries;
  return true;
}

bool PageFile::ReadPage(uint64_t page_id, void* buf) {
  if (page_id >= num_pages_) return false;
  off_t off = static_cast<off_t>((page_id + 1) * kPageSize);
  if (!FullPread(fd_, buf, kPageSize, off)) {
    std::fprintf(stderr, "tiered: read of page %llu in %s failed: %s\n",
                 static_cast<unsigned long long>(page_id), name_.c_str(),
                 std::strerror(errno));
    return false;
  }
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  uint32_t stored_crc;
  uint64_t page_seq;
  std::memcpy(&stored_crc, p, sizeof(stored_crc));
  std::memcpy(&page_seq, p + 8, sizeof(page_seq));
  uint32_t actual = Crc32c(p + 8, kPageSize - 8);
  if (stored_crc != actual || page_seq != page_id + 1) {
    std::fprintf(stderr,
                 "tiered: page %llu of %s is corrupt "
                 "(crc %08x vs %08x, seq %llu)\n",
                 static_cast<unsigned long long>(page_id), name_.c_str(),
                 stored_crc, actual, static_cast<unsigned long long>(page_seq));
    return false;
  }
  // The count word is outside the crc. The run writer zero-fills every
  // tail and keys ascend (only a page's first key can be 0), so a count
  // is right exactly when it is in range, entry count-1 is a real pair
  // and entry count is not.
  const uint32_t count = PageCount(p);
  const KeyValue* entries = PageEntries(p);
  if (count == 0 || count > kEntriesPerPage ||
      (count > 1 && entries[count - 1].key == 0) ||
      (count < kEntriesPerPage && entries[count] != KeyValue{})) {
    std::fprintf(stderr, "tiered: page %llu of %s is corrupt (count %u)\n",
                 static_cast<unsigned long long>(page_id), name_.c_str(),
                 count);
    return false;
  }
  return true;
}

bool PageFile::WritePage(uint64_t page_id, void* buf) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  uint64_t page_seq = page_id + 1;
  std::memcpy(p + 8, &page_seq, sizeof(page_seq));
  uint32_t crc = Crc32c(p + 8, kPageSize - 8);
  std::memcpy(p, &crc, sizeof(crc));
  off_t off = static_cast<off_t>((page_id + 1) * kPageSize);
  if (!FullPwrite(fd_, buf, kPageSize, off)) {
    std::fprintf(stderr, "tiered: write of page %llu to %s failed: %s\n",
                 static_cast<unsigned long long>(page_id), name_.c_str(),
                 std::strerror(errno));
    return false;
  }
  if (page_id >= num_pages_) num_pages_ = page_id + 1;
  return true;
}

bool PageFile::SyncHeader(uint64_t num_entries) {
  if (!WriteHeader(num_entries)) return false;
  if (::fsync(fd_) != 0) {
    std::fprintf(stderr, "tiered: fsync %s failed: %s\n", name_.c_str(),
                 std::strerror(errno));
    return false;
  }
  return true;
}

}  // namespace chameleon::tiered
