#ifndef CHAMELEON_UTIL_IO_H_
#define CHAMELEON_UTIL_IO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/util/common.h"

namespace chameleon {

/// Reads a key file in SOSD binary format: a uint64 count followed by
/// `count` little-endian uint64 keys. Returns false on I/O or format
/// error, after printing an errno-annotated diagnostic to stderr.
bool ReadSosdFile(const std::string& path, std::vector<Key>* keys);

/// Writes keys in SOSD binary format. Returns false on I/O error, after
/// printing an errno-annotated diagnostic to stderr.
bool WriteSosdFile(const std::string& path, const std::vector<Key>& keys);

/// fsyncs the directory holding `path` ("." when the path has no
/// directory part), so a file created, renamed or removed there keeps
/// its directory entry across a crash (a file's own fsync does not
/// persist it). Best effort: an unopenable directory is skipped.
void SyncDirOf(const std::string& path);

/// The one way a file goes live (snapshots, the shard routing table,
/// Disk page runs): `write(tmp)` creates, fills and fsyncs `tmp`, which
/// is `path` + ".tmp"; CommitFile then renames it over `path` and fsyncs
/// the directory, so across a crash `path` holds its old contents or its
/// new ones, never a mix. When `write` or the rename fails, the temp is
/// removed, `path` is left as it was and the result is false.
bool CommitFile(const std::string& path,
                const std::function<bool(const std::string& tmp)>& write);

/// Reads the whole file at `path` into `*bytes` with one read; false
/// when it is missing or unreadable.
bool ReadWholeFile(const std::string& path, std::vector<uint8_t>* bytes);

/// Numbered files (WAL segments, snapshots): `<dir>/<prefix><seq><suffix>`
/// with seq zero-padded to six digits, e.g. "wal-000012.wal".
std::string NumberedPath(const std::string& dir, const char* prefix,
                         uint64_t seq, const char* suffix);

/// Sequence numbers of the numbered files in `dir` (NumberedPath's
/// names, any width), ascending; empty when `dir` cannot be listed.
std::vector<uint64_t> ListNumbered(const std::string& dir, const char* prefix,
                                   const char* suffix);

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_IO_H_
