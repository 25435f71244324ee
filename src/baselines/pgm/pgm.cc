#include "src/baselines/pgm/pgm.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/baselines/common/shrinking_cone.h"

namespace chameleon {
namespace {

/// The segments of the points (get_x(i), i), i in [0, n), with error
/// bound epsilon: |predict(get_x(i)) - i| <= epsilon within a segment.
template <typename GetX>
std::vector<PgmIndex::Segment> BuildSegmentsImpl(size_t n, GetX get_x,
                                                 size_t epsilon) {
  std::vector<PgmIndex::Segment> segs;
  ShrinkingConeSegments(n, get_x, epsilon, [&](size_t start, double slope) {
    segs.push_back({get_x(start), slope, static_cast<double>(start)});
  });
  return segs;
}

size_t PredictClamped(const PgmIndex::Segment& seg, Key key, size_t n) {
  const double pred =
      seg.intercept +
      seg.slope * (static_cast<double>(key) - static_cast<double>(seg.first_key));
  if (pred <= 0.0) return 0;
  const size_t p = static_cast<size_t>(pred);
  return p >= n ? n - 1 : p;
}

// Locates the segment covering `key` within `segs` around predicted
// position `hint` with error bound epsilon (binary search in the window).
const PgmIndex::Segment* LocateSegment(
    const std::vector<PgmIndex::Segment>& segs, Key key, size_t hint,
    size_t epsilon, size_t bound_lo, size_t bound_hi) {
  // The +-epsilon guarantee holds for the segment *first-keys*; a query
  // key strictly between two first-keys can predict up to epsilon + 1
  // off its covering segment, so widen the window one slot downward and
  // intersect with the parent's child range.
  const size_t lo =
      std::max(bound_lo, hint > epsilon + 1 ? hint - epsilon - 1 : 0);
  const size_t hi = std::min({segs.size(), bound_hi, hint + epsilon + 2});
  // Find the last segment with first_key <= key in [lo, hi).
  auto begin = segs.begin() + lo;
  auto end = segs.begin() + hi;
  auto it = std::upper_bound(begin, end, key,
                             [](Key k, const PgmIndex::Segment& s) {
                               return k < s.first_key;
                             });
  if (it == segs.begin()) return &segs.front();
  return &*(it - 1);
}

}  // namespace

void PgmIndex::Component::Build(size_t epsilon) {
  levels.clear();
  if (entries.empty()) return;
  // Level 0: over the data keys.
  levels.push_back(BuildSegmentsImpl(
      entries.size(), [&](size_t i) { return entries[i].key; }, epsilon));
  // Upper levels: over segment first-keys, until one segment remains.
  while (levels.back().size() > 1) {
    const std::vector<Segment>& below = levels.back();
    levels.push_back(BuildSegmentsImpl(
        below.size(), [&](size_t i) { return below[i].first_key; }, epsilon));
  }
}

const PgmIndex::Entry* PgmIndex::Component::Find(Key key,
                                                 size_t epsilon) const {
  if (entries.empty()) return nullptr;
  if (key < entries.front().key || key > entries.back().key) return nullptr;
  // Descend from the root level to level 0. The +-epsilon guarantee
  // holds at each segment's *constrained points* (the first-keys /
  // entries it was built over); a query key beyond a segment's last
  // constrained point extrapolates without a bound, so every hint is
  // clamped into the located segment's child range, which is recoverable
  // from segment intercepts (intercept == index of the first child).
  const Segment* seg = &levels.back().front();
  size_t child_lo = 0;
  size_t child_hi = levels.size() >= 2 ? levels[levels.size() - 2].size()
                                       : entries.size();
  for (size_t li = levels.size(); li-- > 1;) {
    const std::vector<Segment>& below = levels[li - 1];
    size_t hint = PredictClamped(*seg, key, below.size());
    hint = std::clamp(hint, child_lo, child_hi - 1);
    seg = LocateSegment(below, key, hint, epsilon, child_lo, child_hi);
    const size_t seg_idx = static_cast<size_t>(seg - below.data());
    const size_t below_size = li >= 2 ? levels[li - 2].size()
                                      : entries.size();
    child_lo = static_cast<size_t>(seg->intercept);
    child_hi = seg_idx + 1 < below.size()
                   ? static_cast<size_t>(below[seg_idx + 1].intercept)
                   : below_size;
  }
  // Level 0: binary search the clamped +-epsilon window of the data.
  size_t hint = PredictClamped(*seg, key, entries.size());
  hint = std::clamp(hint, child_lo, child_hi - 1);
  const size_t lo =
      std::max(child_lo, hint > epsilon + 1 ? hint - epsilon - 1 : 0);
  const size_t hi = std::min(child_hi, hint + epsilon + 2);
  auto it = std::lower_bound(entries.begin() + lo, entries.begin() + hi, key,
                             [](const Entry& e, Key k) { return e.key < k; });
  if (it != entries.begin() + hi && it->key == key) return &*it;
  return nullptr;
}

// --- PgmIndex ---------------------------------------------------------------

PgmIndex::PgmIndex(size_t epsilon, size_t buffer_capacity)
    : epsilon_(std::max<size_t>(4, epsilon)),
      buffer_capacity_(std::max<size_t>(16, buffer_capacity)) {}

void PgmIndex::BulkLoad(std::span<const KeyValue> data) {
  buffer_.clear();
  components_.clear();
  size_ = data.size();
  if (data.empty()) return;
  Component c;
  c.entries.reserve(data.size());
  for (const KeyValue& kv : data) c.entries.push_back({kv.key, kv.value, false});
  c.Build(epsilon_);
  // Place the bulk-loaded run at the slot whose capacity covers it, so
  // subsequent insert cascades stay geometric instead of repeatedly
  // rewriting the big run.
  size_t slot = 0;
  while ((buffer_capacity_ << (slot + 1)) < data.size()) ++slot;
  components_.resize(slot + 1);
  components_[slot] = std::move(c);
}

const PgmIndex::Entry* PgmIndex::FindNewest(Key key) const {
  // Buffer is newest.
  auto it = std::lower_bound(buffer_.begin(), buffer_.end(), key,
                             [](const Entry& e, Key k) { return e.key < k; });
  if (it != buffer_.end() && it->key == key) return &*it;
  // Components in order: components_[0] holds the most recent merges
  // because pushes cascade front-to-back.
  for (const Component& c : components_) {
    const Entry* e = c.Find(key, epsilon_);
    if (e != nullptr) return e;
  }
  return nullptr;
}

bool PgmIndex::Lookup(Key key, Value* value) const {
  const Entry* e = FindNewest(key);
  if (e == nullptr || e->tombstone) return false;
  if (value != nullptr) *value = e->value;
  return true;
}

std::vector<PgmIndex::Entry> PgmIndex::MergeRuns(
    const std::vector<Entry>& newer, const std::vector<Entry>& older,
    bool keep_tombstones) {
  std::vector<Entry> out;
  out.reserve(newer.size() + older.size());
  size_t i = 0, j = 0;
  while (i < newer.size() || j < older.size()) {
    const Entry* pick;
    if (j >= older.size() ||
        (i < newer.size() && newer[i].key <= older[j].key)) {
      pick = &newer[i];
      if (j < older.size() && older[j].key == newer[i].key) ++j;  // shadowed
      ++i;
    } else {
      pick = &older[j];
      ++j;
    }
    if (pick->tombstone && !keep_tombstones) continue;
    out.push_back(*pick);
  }
  return out;
}

void PgmIndex::Push(Entry e) {
  auto it = std::lower_bound(buffer_.begin(), buffer_.end(), e.key,
                             [](const Entry& x, Key k) { return x.key < k; });
  if (it != buffer_.end() && it->key == e.key) {
    *it = e;  // overwrite the buffered record
  } else {
    buffer_.insert(it, e);
  }
  if (buffer_.size() < buffer_capacity_) return;

  // Cascade the buffer into components of capacity B * 2^i.
  std::vector<Entry> run = std::move(buffer_);
  buffer_.clear();
  size_t slot = 0;
  for (;; ++slot) {
    if (slot == components_.size()) components_.emplace_back();
    const bool is_last = (slot + 1 == components_.size());
    const size_t slot_capacity = buffer_capacity_ << (slot + 1);
    Component& c = components_[slot];
    run = MergeRuns(run, c.entries, /*keep_tombstones=*/!is_last);
    if (run.size() <= slot_capacity || is_last) {
      c.entries = std::move(run);
      c.Build(epsilon_);
      break;
    }
    c.entries.clear();
    c.levels.clear();
  }
}

bool PgmIndex::Insert(Key key, Value value) {
  const Entry* existing = FindNewest(key);
  if (existing != nullptr && !existing->tombstone) return false;
  Push({key, value, false});
  ++size_;
  return true;
}

bool PgmIndex::Erase(Key key) {
  const Entry* existing = FindNewest(key);
  if (existing == nullptr || existing->tombstone) return false;
  Push({key, 0, true});
  --size_;
  return true;
}

size_t PgmIndex::RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const {
  // Gather candidates per run (newest rank first), then keep the newest
  // record per key and drop tombstones.
  struct Candidate {
    Entry entry;
    size_t rank;  // lower = newer
  };
  std::vector<Candidate> candidates;
  auto gather = [&](const std::vector<Entry>& run, size_t rank) {
    auto it = std::lower_bound(run.begin(), run.end(), lo,
                               [](const Entry& e, Key k) { return e.key < k; });
    for (; it != run.end() && it->key <= hi; ++it) {
      candidates.push_back({*it, rank});
    }
  };
  gather(buffer_, 0);
  for (size_t i = 0; i < components_.size(); ++i) {
    gather(components_[i].entries, i + 1);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.entry.key != b.entry.key) return a.entry.key < b.entry.key;
              return a.rank < b.rank;
            });
  size_t count = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i > 0 && candidates[i].entry.key == candidates[i - 1].entry.key) {
      continue;  // older duplicate
    }
    if (candidates[i].entry.tombstone) continue;
    out->push_back({candidates[i].entry.key, candidates[i].entry.value});
    ++count;
  }
  return count;
}

size_t PgmIndex::SizeBytes() const {
  size_t bytes = sizeof(PgmIndex) + buffer_.capacity() * sizeof(Entry);
  for (const Component& c : components_) {
    bytes += c.entries.capacity() * sizeof(Entry);
    for (const auto& level : c.levels) {
      bytes += level.capacity() * sizeof(Segment);
    }
  }
  return bytes;
}

IndexStats PgmIndex::Stats() const {
  IndexStats stats;
  size_t segments = 0;
  size_t height = 0;
  for (const Component& c : components_) {
    height = std::max(height, c.levels.size());
    for (const auto& level : c.levels) segments += level.size();
  }
  // The data level (the components' entries and the insert buffer)
  // is one level of the height and one node, empty or not.
  stats.num_nodes = segments + 1;
  stats.max_height = static_cast<int>(height) + 1;
  stats.avg_height = stats.max_height;
  stats.max_error = static_cast<double>(epsilon_);
  stats.avg_error = static_cast<double>(epsilon_) / 2.0;
  return stats;
}

}  // namespace chameleon
