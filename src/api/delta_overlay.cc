#include "src/api/delta_overlay.h"

#include <cstdio>
#include <stdexcept>

#include "src/obs/phase_timer.h"
#include "src/obs/stats.h"

namespace chameleon {
namespace {

/// Pairs Merge buffers between the merge-join and the run writer.
constexpr size_t kMergeChunk = 4096;

/// Puts each pair of `chunk` that is not tombstoned, preceded by the
/// delta pairs (from cursor `*di` on) that sort before it. A re-inserted
/// tombstoned key thus comes once, from the delta.
template <typename Put>
void MergeJoin(DeltaOverlayIndex::RunChunk chunk,
               const std::vector<KeyValue>& delta, size_t* di,
               const std::unordered_set<Key>& tombstones, Put put) {
  for (const KeyValue& kv : chunk) {
    while (*di < delta.size() && delta[*di].key < kv.key) put(delta[(*di)++]);
    if (!tombstones.contains(kv.key)) put(kv);
  }
}

}  // namespace

void DeltaOverlayIndex::BulkLoad(std::span<const KeyValue> data) {
  // Write first: a load that throws leaves the previous lifetime whole.
  WriteRun(data.size(), [&](ChunkSink emit) {
    emit(data);
    return true;
  });
  InstallRun();
  tombstones_.clear();
  delta_->BulkLoad({});
}

bool DeltaOverlayIndex::Lookup(Key key, Value* value) const {
  if (delta_->Lookup(key, value)) return true;
  if (tombstones_.contains(key)) return false;
  return RunLookup(key, value);
}

void DeltaOverlayIndex::LookupBatch(std::span<const Key> keys, Value* values,
                                    bool* found) const {
  delta_->LookupBatch(keys, values, found);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (found[i] || tombstones_.contains(keys[i])) continue;
    found[i] = RunLookup(keys[i], values + i);
  }
}

bool DeltaOverlayIndex::Insert(Key key, Value value) {
  if (!delta_->Insert(key, value)) return false;  // already in the delta
  if (tombstones_.contains(key)) {
    // Shadows a dead run copy: the tombstone stays until the merge
    // drops both.
    RecordRunWrite(key);
  } else if (RunLookup(key, nullptr)) {
    delta_->Erase(key);  // live in the run: a duplicate
    return false;
  }
  CHAMELEON_STAT_INC(kTieredDeltaInserts);
  if (MergeDue()) Merge();
  return true;
}

bool DeltaOverlayIndex::Erase(Key key) {
  // A delta hit covers fresh keys and re-inserts over a tombstone; the
  // tombstone, if any, stays right either way.
  if (delta_->Erase(key)) return true;
  if (tombstones_.contains(key) || !RunLookup(key, nullptr)) return false;
  tombstones_.insert(key);
  RecordRunWrite(key);
  if (MergeDue()) Merge();
  return true;
}

size_t DeltaOverlayIndex::RangeScan(Key lo, Key hi,
                                    std::vector<KeyValue>* out) const {
  std::vector<KeyValue> delta;
  delta_->RangeScan(lo, hi, &delta);
  const size_t before = out->size();
  size_t di = 0;
  auto put = [out](const KeyValue& kv) { out->push_back(kv); };
  ScanRun(lo, hi, /*merging=*/false, [&](RunChunk chunk) {
    MergeJoin(chunk, delta, &di, tombstones_, put);
  });
  out->insert(out->end(), delta.begin() + di, delta.end());
  return out->size() - before;
}

bool DeltaOverlayIndex::Merge() {
  if (delta_->size() == 0 && tombstones_.empty()) return true;
  std::vector<KeyValue> drained;
  {
    CHAMELEON_PHASE_SPAN(kMergeScan);
    drained.reserve(delta_->size());
    delta_->RangeScan(kMinKey, kMaxKey, &drained);
  }
  auto source = [&](ChunkSink emit) {
    std::vector<KeyValue> buffer;
    buffer.reserve(kMergeChunk);
    size_t di = 0;
    auto put = [&](const KeyValue& kv) {
      buffer.push_back(kv);
      if (buffer.size() < kMergeChunk) return;
      emit(buffer);
      buffer.clear();
    };
    if (!ScanRun(kMinKey, kMaxKey, /*merging=*/true, [&](RunChunk chunk) {
          MergeJoin(chunk, drained, &di, tombstones_, put);
        })) {
      return false;
    }
    emit(buffer);
    emit(RunChunk(drained).subspan(di));
    return true;
  };
  try {
    {
      CHAMELEON_PHASE_SPAN(kMergeWrite);
      WriteRun(size(), source);
    }
    {
      CHAMELEON_PHASE_SPAN(kMergeInstall);
      InstallRun();
    }
    tombstones_.clear();
    ++merges_;
    CHAMELEON_STAT_INC(kTieredMerges);
    CHAMELEON_STAT_ADD(kTieredMergeEntries, RunEntries());
    delta_->BulkLoad({});
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
  return true;
}

}  // namespace chameleon
