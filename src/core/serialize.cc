#include "src/core/chameleon_index.h"

#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "src/obs/stats.h"
#include "src/storage/snapshot.h"

namespace chameleon {
namespace {

constexpr uint32_t kMagic = 0x4348414D;  // "CHAM"
constexpr uint32_t kVersion = 1;

// All writes/reads are raw little-endian PODs (the library targets one
// architecture family; cross-endian portability is out of scope).
template <typename T>
bool WriteVal(std::FILE* f, const T& v) {
  return std::fwrite(&v, sizeof(T), 1, f) == 1;
}

template <typename T>
bool ReadVal(std::FILE* f, T* v) {
  return std::fread(v, sizeof(T), 1, f) == 1;
}

template <typename T>
bool WriteVec(std::FILE* f, const std::vector<T>& v) {
  const uint64_t n = v.size();
  if (!WriteVal(f, n)) return false;
  return n == 0 || std::fwrite(v.data(), sizeof(T), n, f) == n;
}

template <typename T>
bool ReadVec(std::FILE* f, std::vector<T>* v) {
  uint64_t n = 0;
  if (!ReadVal(f, &n)) return false;
  v->resize(n);
  return n == 0 || std::fread(v->data(), sizeof(T), n, f) == n;
}

// Every frame and subtree node record starts with the same header:
// {lk, uk, slope, terminal flag (u8)}, then the child count (u64) for a
// non-terminal node. A terminal node's payload follows its header (unit
// range for a frame node, the EBH leaf for a subtree node); children
// follow in pre-order.
template <typename Node>
bool WriteNodeHeader(std::FILE* f, const Node& node, bool terminal) {
  return WriteVal(f, node.lk) && WriteVal(f, node.uk) &&
         WriteVal(f, node.slope) &&
         WriteVal(f, static_cast<uint8_t>(terminal ? 1 : 0)) &&
         (terminal ||
          WriteVal(f, static_cast<uint64_t>(node.children.size())));
}

/// Reads a header written by WriteNodeHeader into `node`: a terminal
/// node's children are cleared, a non-terminal node gets its count of
/// default children for the walk to fill.
template <typename Node>
bool ReadNodeHeader(std::FILE* f, Node* node, bool* terminal) {
  uint8_t flag = 0;
  if (!(ReadVal(f, &node->lk) && ReadVal(f, &node->uk) &&
        ReadVal(f, &node->slope) && ReadVal(f, &flag))) {
    return false;
  }
  *terminal = flag != 0;
  if (*terminal) {
    node->children.clear();
    return true;
  }
  uint64_t n = 0;
  if (!ReadVal(f, &n)) return false;
  node->children.assign(n, Node{});
  return true;
}

}  // namespace

// --- member implementations (access to the private structure) ---------------

bool ChameleonIndex::SaveTo(std::FILE* fp) const {
  // The structure walk below is unlocked, so a live retraining thread
  // swapping a subtree mid-save would tear the stream: the pause guard
  // waits out any in-flight pass and holds off new ones. Foreground
  // writers remain the caller's responsibility (DurableIndex holds its
  // write mutex around checkpoints).
  PeriodicWorker::PauseGuard pause(retrainer_);
  if (retrainer_.running()) CHAMELEON_STAT_INC(kSaveRetrainerPauses);
  bool ok = WriteVal(fp, kMagic) && WriteVal(fp, kVersion) &&
            WriteVal(fp, config_.tau) && WriteVal(fp, config_.alpha) &&
            WriteVal(fp, static_cast<uint32_t>(h_)) && WriteVal(fp, mk_) &&
            WriteVal(fp, Mk_) && WriteVal(fp, static_cast<uint64_t>(size_));

  // DARE parameters (so retraining after load uses the same frame plan).
  ok = ok && WriteVal(fp, static_cast<uint64_t>(dare_params_.root_fanout));
  ok = ok && WriteVal(fp, static_cast<uint64_t>(dare_params_.matrix.size()));
  for (const auto& row : dare_params_.matrix) {
    ok = ok && WriteVec(fp, row);
  }

  // Frame tree, then the units and their subtrees, each pre-order.
  VisitPreOrder(frame_root_, 0, [&](const FrameNode& node, int) {
    const bool is_units = node.children.empty();
    ok = ok && WriteNodeHeader(fp, node, is_units);
    if (is_units) {
      ok = ok && WriteVal(fp, static_cast<uint64_t>(node.unit_begin)) &&
           WriteVal(fp, static_cast<uint64_t>(node.unit_fanout));
    }
  });
  ok = ok && WriteVal(fp, static_cast<uint64_t>(units_.size()));
  for (const auto& unit : units_) {
    ok = ok && WriteVal(fp, unit->lk) && WriteVal(fp, unit->uk) &&
         WriteVal(fp, static_cast<uint64_t>(unit->built_keys));
    VisitPreOrder(std::as_const(unit->root), 0, [&](const SubNode& node, int) {
      ok = ok && WriteNodeHeader(fp, node, node.is_leaf());
      if (node.is_leaf()) {
        const EbhLeaf& leaf = *node.leaf;
        ok = ok && WriteVal(fp, leaf.lk()) && WriteVal(fp, leaf.uk()) &&
             WriteVal(fp, leaf.tau()) && WriteVal(fp, leaf.alpha()) &&
             WriteVal(fp, static_cast<uint64_t>(leaf.conflict_degree())) &&
             WriteVal(fp, static_cast<uint64_t>(leaf.num_keys())) &&
             WriteVec(fp, leaf.raw_keys()) && WriteVec(fp, leaf.raw_values());
      }
    });
  }
  return ok;
}

bool ChameleonIndex::LoadFrom(std::FILE* fp) {
  PeriodicWorker::PauseGuard pause(retrainer_);
  uint32_t magic = 0, version = 0;
  if (!ReadVal(fp, &magic) || !ReadVal(fp, &version) || magic != kMagic ||
      version != kVersion) {
    return false;
  }
  uint32_t h = 0;
  uint64_t size = 0;
  double tau = 0, alpha = 0;
  if (!(ReadVal(fp, &tau) && ReadVal(fp, &alpha) && ReadVal(fp, &h) &&
        ReadVal(fp, &mk_) && ReadVal(fp, &Mk_) && ReadVal(fp, &size))) {
    return false;
  }
  config_.tau = tau;
  config_.alpha = alpha;
  h_ = static_cast<int>(h);
  size_ = size;

  uint64_t root_fanout = 0, rows = 0;
  if (!ReadVal(fp, &root_fanout) || !ReadVal(fp, &rows)) return false;
  dare_params_.root_fanout = root_fanout;
  dare_params_.matrix.resize(rows);
  for (auto& row : dare_params_.matrix) {
    if (!ReadVec(fp, &row)) return false;
  }

  // A failed read stops the walk: `ok` turns false, the callback stops
  // reading and sizes no further children.
  bool ok = true;
  frame_root_ = FrameNode{};
  VisitPreOrder(frame_root_, 0, [&](FrameNode& node, int) {
    bool is_units = false;
    ok = ok && ReadNodeHeader(fp, &node, &is_units);
    if (!ok || !is_units) return;
    uint64_t begin = 0, fanout = 0;
    ok = ReadVal(fp, &begin) && ReadVal(fp, &fanout);
    node.unit_begin = begin;
    node.unit_fanout = fanout;
  });
  if (!ok) return false;

  const auto read_sub = [&](SubNode& node, int) {
    bool is_leaf = false;
    ok = ok && ReadNodeHeader(fp, &node, &is_leaf);
    if (!ok) return;
    if (!is_leaf) {
      node.leaf.reset();
      return;
    }
    Key lk = 0, uk = 0;
    double tau = 0, alpha = 0;
    uint64_t cd = 0, num_keys = 0;
    std::vector<Key> keys;
    std::vector<Value> values;
    ok = ReadVal(fp, &lk) && ReadVal(fp, &uk) && ReadVal(fp, &tau) &&
         ReadVal(fp, &alpha) && ReadVal(fp, &cd) && ReadVal(fp, &num_keys) &&
         ReadVec(fp, &keys) && ReadVec(fp, &values) &&
         keys.size() == values.size();
    if (!ok) return;
    node.leaf = EbhLeaf::FromRaw(lk, uk, tau, alpha, cd, num_keys,
                                 std::move(keys), std::move(values));
  };

  uint64_t num_units = 0;
  if (!ReadVal(fp, &num_units)) return false;
  // Exclude the sampler's HeatmapSnapshot while units_ is replaced,
  // same as BuildFrame (recovery can run with a sampler attached).
  std::lock_guard<std::mutex> heat_guard(heatmap_mu_);
  units_.clear();
  units_.reserve(num_units);
  for (uint64_t i = 0; i < num_units; ++i) {
    auto unit = std::make_unique<Unit>();
    uint64_t built = 0;
    if (!(ReadVal(fp, &unit->lk) && ReadVal(fp, &unit->uk) &&
          ReadVal(fp, &built))) {
      return false;
    }
    unit->built_keys = built;
    VisitPreOrder(unit->root, 0, read_sub);
    if (!ok) return false;
    units_.push_back(std::move(unit));
  }

  built_size_ = size_;
  updates_since_build_ = 0;
  total_full_rebuilds_ = 0;
  total_retrains_.store(0);
  return true;
}

bool ChameleonIndex::Persist(const std::string& path, uint64_t wal_seq) const {
  return WriteStreamSnapshot(
      path, {SnapshotKind::kChameleonNative, size(), wal_seq},
      [this](std::FILE* out) { return SaveTo(out); });
}

bool ChameleonIndex::Restore(const std::string& path, SnapshotMeta* meta) {
  return RestoreSnapshot(this, path, meta,
                         [this](std::FILE* in) { return LoadFrom(in); });
}

}  // namespace chameleon
