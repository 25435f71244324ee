#include "src/obs/trace_journal.h"

#include <cstdio>

#include "src/util/timer.h"

namespace chameleon::obs {

std::string_view TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kRetrainPass: return "retrain_pass";
    case TraceEventType::kUnitRebuilt: return "unit_rebuilt";
    case TraceEventType::kRetrainDenied: return "retrain_denied";
    case TraceEventType::kFullRebuild: return "full_rebuild";
    case TraceEventType::kLeafExpansion: return "leaf_expansion";
    case TraceEventType::kCheckpoint: return "checkpoint";
    case TraceEventType::kRecovery: return "recovery";
  }
  return "unknown";
}

TraceJournal& TraceJournal::Get() noexcept {
  static TraceJournal journal;
  return journal;
}

void TraceJournal::Append(TraceEventType type, uint64_t a,
                          uint64_t b) noexcept {
  if (!enabled()) return;
  const uint64_t idx = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[idx & kMask];
  // Per-slot writer exclusion: claim the slot by moving its sequence
  // from an older event's (or empty) to kWriting. An appender a full
  // lap away that finds the slot busy (kWriting compares above every
  // index) or already holding a newer event drops its event instead of
  // interleaving payload halves with the other writer. The event still
  // counts in total_appended(), as an overwritten one does.
  uint64_t seen = slot.seq.load(std::memory_order_relaxed);
  if (seen > idx || !slot.seq.compare_exchange_strong(
                        seen, kWriting, std::memory_order_relaxed)) {
    return;
  }
  // Orders the kWriting store before the payload stores, pairing with
  // Snapshot's acquire fence: a reader that sees any new payload field
  // then sees kWriting (or later) on its re-check.
  std::atomic_thread_fence(std::memory_order_release);
  slot.ts_ns.store(NowNanos(), std::memory_order_relaxed);
  slot.type.store(static_cast<uint32_t>(type), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.seq.store(idx + 1, std::memory_order_release);
}

size_t TraceJournal::size() const noexcept {
  const uint64_t appended = head_.load(std::memory_order_relaxed);
  return appended < kCapacity ? static_cast<size_t>(appended) : kCapacity;
}

std::vector<TraceEvent> TraceJournal::Snapshot() const {
  const uint64_t end = head_.load(std::memory_order_acquire);
  const uint64_t begin = end > kCapacity ? end - kCapacity : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<size_t>(end - begin));
  for (uint64_t i = begin; i < end; ++i) {
    // Seqlock read: the sequence before and after the payload must both
    // name event i, or a writer may have torn it and the slot is skipped.
    const Slot& slot = slots_[i & kMask];
    if (slot.seq.load(std::memory_order_acquire) != i + 1) continue;
    TraceEvent ev;
    ev.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    ev.type = static_cast<TraceEventType>(
        slot.type.load(std::memory_order_relaxed));
    ev.a = slot.a.load(std::memory_order_relaxed);
    ev.b = slot.b.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != i + 1) continue;
    out.push_back(ev);
  }
  return out;
}

bool TraceJournal::DumpJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const TraceEvent& ev : Snapshot()) {
    const std::string_view name = TraceEventTypeName(ev.type);
    std::fprintf(f,
                 "{\"ts_ns\": %lld, \"type\": \"%.*s\", \"a\": %llu, "
                 "\"b\": %llu}\n",
                 static_cast<long long>(ev.ts_ns),
                 static_cast<int>(name.size()), name.data(),
                 static_cast<unsigned long long>(ev.a),
                 static_cast<unsigned long long>(ev.b));
  }
  const bool ok = std::fclose(f) == 0;
  return ok;
}

void TraceJournal::Clear() noexcept {
  head_.store(0, std::memory_order_relaxed);
  for (Slot& slot : slots_) {
    slot.seq.store(0, std::memory_order_relaxed);
  }
}

}  // namespace chameleon::obs
