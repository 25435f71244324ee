#ifndef CHAMELEON_UTIL_IO_H_
#define CHAMELEON_UTIL_IO_H_

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

/// Renames `from` over `to` (atomic on POSIX) and then fsyncs `to`'s
/// directory (SyncDirOf), so the new name survives a crash. Returns
/// false with errno set when the rename fails; callers print their own
/// diagnostics.
bool RenameDurably(const std::string& from, const std::string& to);

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_IO_H_
