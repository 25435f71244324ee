#ifndef PERFBENCH_SPAN_INDEX_H_
#define PERFBENCH_SPAN_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "src/api/kv_index.h"
#include "src/obs/latency_histogram.h"

namespace perfbench {

namespace obs = chameleon::obs;

using chameleon::Key;
using chameleon::KeyValue;
using chameleon::KvIndex;
using chameleon::Value;

// Layer-boundary tracing for the benchmark's traced run. A pass-through
// KvIndex decorator ("Span(<layer>):<spec>", registered with the index
// spec registry by RegisterSpanDecorator) wraps one layer of the stack
// and records a span around every call into it. Spans nest per thread:
// a span opened while another is open on the same thread is its child
// and shares its request id, so a layer's self time is its span minus
// the spans of the layers below it.
//
// Nothing here is inside the program under test: spans are taken only
// at the decorator boundaries the benchmark inserts, e.g.
// "Span(engine):Sharded4:Span(core):Chameleon". Never place a Span
// directly under Durable: the snapshot writer picks its native format
// by checking whether Durable's inner index is a ChameleonIndex.

enum class Layer : uint8_t { kEngine, kStorage, kTiered, kCore };
inline constexpr size_t kNumLayers = 4;
std::string_view LayerName(Layer layer);
bool ParseLayer(std::string_view name, Layer* out);

/// The KvIndex entry points a span can wrap.
enum class SpanOp : uint8_t {
  kBulkLoad,
  kLookup,
  kLookupBatch,
  kInsert,
  kErase,
  kRangeScan,
  kRecover,
};
inline constexpr size_t kNumSpanOps = 7;
std::string_view SpanOpName(SpanOp op);

/// One recorded span. Times are nanoseconds since the tracer's epoch.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a root span
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
  uint16_t instance = 0;
  Layer layer = Layer::kCore;
  SpanOp op = SpanOp::kLookup;
};

/// Everything recorded since the last Tracer::Reset, merged over threads.
struct TraceSummary {
  /// Span durations and self times (duration minus direct children).
  obs::LatencyHistogram total[kNumLayers][kNumSpanOps];
  obs::LatencyHistogram self[kNumLayers][kNumSpanOps];
  /// Earliest start / latest end over all spans of a (layer, op):
  /// the wall-clock extent of work that ran on several threads.
  int64_t first_start_ns[kNumLayers][kNumSpanOps];
  int64_t last_end_ns[kNumLayers][kNumSpanOps];
  /// Spans opened per decorator instance, sampled or not (see
  /// Tracer::RegisterInstance).
  std::vector<uint64_t> instance_spans;
  std::vector<Layer> instance_layer;
  /// Spans of a sample of requests (see Tracer::kKeepEvery), plus every
  /// BulkLoad/Recover, capped in size.
  std::vector<SpanRecord> kept;
  uint64_t spans = 0;  // timed spans

  TraceSummary();
  const obs::LatencyHistogram& Total(Layer l, SpanOp op) const {
    return total[static_cast<size_t>(l)][static_cast<size_t>(op)];
  }
  const obs::LatencyHistogram& Self(Layer l, SpanOp op) const {
    return self[static_cast<size_t>(l)][static_cast<size_t>(op)];
  }
  /// Wall-clock extent in ns (0 when the (layer, op) saw no span).
  int64_t ExtentNs(Layer l, SpanOp op) const;
};

struct ThreadSpans;

/// Process-wide span collector. Recording is per thread and lock-free;
/// Reset/Collect/ClearInstances require quiescence (no open spans).
class Tracer {
 public:
  /// Every kSampleEvery-th request of a thread (a root span and all its
  /// descendants) is timed, and every BulkLoad and Recover; the others
  /// are only counted, which keeps the clock reads (~25 ns each on a
  /// virtual machine) from dominating short operations.
  static constexpr uint64_t kSampleEvery = 8;
  /// Every kKeepEvery-th request is also kept as raw spans.
  static constexpr uint64_t kKeepEvery = 512;
  static constexpr size_t kKeepCapPerThread = 1 << 14;

  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Assigns an id to a new decorator instance of `layer`.
  uint16_t RegisterInstance(Layer layer);
  /// Forgets all instances (call before building a new traced stack).
  void ClearInstances();
  /// Drops everything recorded so far.
  void Reset();
  std::unique_ptr<TraceSummary> Collect() const;

  /// The calling thread's buffer (lazily taken from a pool and handed
  /// back when the thread exits).
  ThreadSpans* Local();
  void Release(ThreadSpans* buffer);

  uint64_t EpochTicks() const { return epoch_; }
  /// Calibrated bookkeeping costs subtracted from every span (what an
  /// empty span measures) and from a parent's self time per child.
  double SpanCostNs() const;
  double ChildCostNs() const;

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  uint64_t epoch_ = 0;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> buffers_;  // guarded by mu_
  std::vector<ThreadSpans*> free_;                     // guarded by mu_
  std::vector<Layer> instances_;                       // guarded by mu_
};

/// The pass-through decorator. Forwards every KvIndex virtual to the
/// wrapped index, unchanged, and wraps the data-path calls in spans.
class SpanIndex final : public KvIndex {
 public:
  SpanIndex(std::unique_ptr<KvIndex> inner, Layer layer);

  SpanIndex(const SpanIndex&) = delete;
  SpanIndex& operator=(const SpanIndex&) = delete;

  void BulkLoad(std::span<const KeyValue> data) override;
  bool Lookup(Key key, Value* value) const override;
  void LookupBatch(std::span<const Key> keys, Value* values,
                   bool* found) const override;
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t RangeScan(Key lo, Key hi,
                   std::vector<KeyValue>* out) const override;
  size_t size() const override { return inner_->size(); }
  size_t SizeBytes() const override { return inner_->SizeBytes(); }
  chameleon::IndexStats Stats() const override { return inner_->Stats(); }
  std::string_view Name() const override { return inner_->Name(); }
  obs::Heatmap HeatmapSnapshot() const override {
    return inner_->HeatmapSnapshot();
  }
  bool Recover() override;
  bool SupportsConcurrentWrites() const override {
    return inner_->SupportsConcurrentWrites();
  }
  bool EnableConcurrentWrites() override {
    return inner_->EnableConcurrentWrites();
  }
  obs::Heatmap WriteContentionSnapshot() const override {
    return inner_->WriteContentionSnapshot();
  }

  KvIndex& inner() { return *inner_; }

 private:
  std::unique_ptr<KvIndex> inner_;
  Layer layer_;
  uint16_t instance_;
};

/// Peels Span decorators off the top of a stack.
KvIndex* Unwrap(KvIndex* index);

/// Registers "Span(<layer>):<spec>" with the index-spec registry.
/// Idempotent.
void RegisterSpanDecorator();

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_INDEX_H_
