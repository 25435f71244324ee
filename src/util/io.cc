#include "src/util/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace chameleon {
namespace {

/// One-line stderr diagnostic with errno context; every failure path
/// reports *why* (missing file, short read, full disk) instead of a
/// silent false.
void WarnIo(const char* op, const std::string& path, const char* detail) {
  if (errno != 0) {
    std::fprintf(stderr, "WARNING: %s(%s): %s: %s\n", op, path.c_str(),
                 detail, std::strerror(errno));
  } else {
    std::fprintf(stderr, "WARNING: %s(%s): %s\n", op, path.c_str(), detail);
  }
}

}  // namespace

bool ReadSosdFile(const std::string& path, std::vector<Key>* keys) {
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    WarnIo("ReadSosdFile", path, "cannot open");
    return false;
  }
  uint64_t count = 0;
  if (std::fread(&count, sizeof(count), 1, f) != 1) {
    WarnIo("ReadSosdFile", path, "cannot read key count header");
    std::fclose(f);
    return false;
  }
  keys->resize(count);
  const size_t read = std::fread(keys->data(), sizeof(Key), count, f);
  std::fclose(f);
  if (read != count) {
    WarnIo("ReadSosdFile", path, "truncated: fewer keys than header claims");
    keys->clear();
    return false;
  }
  return true;
}

bool WriteSosdFile(const std::string& path, const std::vector<Key>& keys) {
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    WarnIo("WriteSosdFile", path, "cannot open");
    return false;
  }
  const uint64_t count = keys.size();
  bool ok = std::fwrite(&count, sizeof(count), 1, f) == 1;
  // An empty vector may hand out a null data(), which fwrite must not get.
  ok = ok && (count == 0 ||
              std::fwrite(keys.data(), sizeof(Key), count, f) == count);
  if (!ok) WarnIo("WriteSosdFile", path, "short write");
  if (std::fclose(f) != 0) {
    WarnIo("WriteSosdFile", path, "close failed");
    return false;
  }
  return ok;
}

void SyncDirOf(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

bool CommitFile(const std::string& path,
                const std::function<bool(const std::string& tmp)>& write) {
  const std::string tmp = path + ".tmp";
  if (write(tmp) && std::rename(tmp.c_str(), path.c_str()) == 0) {
    SyncDirOf(path);
    return true;
  }
  std::error_code ec;
  std::filesystem::remove(tmp, ec);
  return false;
}

bool ReadWholeFile(const std::string& path, std::vector<uint8_t>* bytes) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  std::FILE* f = ec ? nullptr : std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  bytes->resize(size);
  const bool ok = size == 0 || std::fread(bytes->data(), 1, size, f) == size;
  std::fclose(f);
  return ok;
}

std::string NumberedPath(const std::string& dir, const char* prefix,
                         uint64_t seq, const char* suffix) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%06llu%s", prefix,
                static_cast<unsigned long long>(seq), suffix);
  return dir + "/" + name;
}

std::vector<uint64_t> ListNumbered(const std::string& dir, const char* prefix,
                                   const char* suffix) {
  // %n records how far the match got, so a name with text after the
  // suffix (a commit's "<name>.tmp") is not taken for a numbered file.
  const std::string pattern = std::string(prefix) + "%llu" + suffix + "%n";
  std::vector<uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long seq = 0;
    int matched = -1;
    if (std::sscanf(name.c_str(), pattern.c_str(), &seq, &matched) == 1 &&
        matched == static_cast<int>(name.size())) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

}  // namespace chameleon
