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
  const TraceEvent event{NowNanos(), type, a, b};
  std::lock_guard<std::mutex> lock(mu_);
  ring_[head_ % kCapacity] = event;
  ++head_;
}

size_t TraceJournal::size() const noexcept {
  const uint64_t appended = total_appended();
  return appended < kCapacity ? static_cast<size_t>(appended) : kCapacity;
}

uint64_t TraceJournal::total_appended() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return head_;
}

std::vector<TraceEvent> TraceJournal::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t begin = head_ > kCapacity ? head_ - kCapacity : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<size_t>(head_ - begin));
  for (uint64_t i = begin; i < head_; ++i) out.push_back(ring_[i % kCapacity]);
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
  std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
}

}  // namespace chameleon::obs
