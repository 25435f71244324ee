#include "perfbench/src/span_index.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "src/api/index_spec.h"
#include "src/obs/phase_timer.h"

namespace perfbench {

using chameleon::obs::CycleClock;

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kEngine: return "engine";
    case Layer::kStorage: return "storage";
    case Layer::kTiered: return "tiered";
    case Layer::kCore: return "core";
  }
  return "unknown";
}

bool ParseLayer(std::string_view name, Layer* out) {
  for (size_t i = 0; i < kNumLayers; ++i) {
    const Layer layer = static_cast<Layer>(i);
    if (name == LayerName(layer)) {
      *out = layer;
      return true;
    }
  }
  return false;
}

std::string_view SpanOpName(SpanOp op) {
  switch (op) {
    case SpanOp::kBulkLoad: return "bulk_load";
    case SpanOp::kLookup: return "lookup";
    case SpanOp::kLookupBatch: return "lookup_batch";
    case SpanOp::kInsert: return "insert";
    case SpanOp::kErase: return "erase";
    case SpanOp::kRangeScan: return "range_scan";
    case SpanOp::kRecover: return "recover";
  }
  return "unknown";
}

TraceSummary::TraceSummary() {
  for (auto& row : first_start_ns) {
    std::fill(std::begin(row), std::end(row),
              std::numeric_limits<int64_t>::max());
  }
  for (auto& row : last_end_ns) std::fill(std::begin(row), std::end(row), 0);
}

int64_t TraceSummary::ExtentNs(Layer l, SpanOp op) const {
  const size_t li = static_cast<size_t>(l);
  const size_t oi = static_cast<size_t>(op);
  if (total[li][oi].count() == 0) return 0;
  return last_end_ns[li][oi] - first_start_ns[li][oi];
}

/// One thread's recording state. Only its owning thread writes it while
/// spans are open; the tracer reads it when everything is quiescent.
struct ThreadSpans {
  struct Frame {
    uint64_t start_ticks = 0;
    int64_t child_ns = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint16_t instance = 0;
    Layer layer = Layer::kCore;
    SpanOp op = SpanOp::kLookup;
  };
  static constexpr int kMaxDepth = 16;

  uint32_t index = 0;
  std::array<Frame, kMaxDepth> stack;
  int depth = 0;
  int dropped_depth = 0;  // open spans not timed (unsampled, or too deep)
  uint64_t seq = 0;       // span ids and request ids of this thread
  uint64_t requests = 0;  // root spans opened
  uint64_t request = 0;
  bool sampled = false;   // the current request is timed
  bool keep_request = false;
  bool sample_all = false;  // calibration: time every span, keep none

  /// Bookkeeping cost of one timed span, in ns: `span_cost` is what an
  /// empty span measures, `child_cost` what a child adds to its parent
  /// beyond its own measured duration. Both are subtracted, so durations
  /// and self times estimate the work inside the layer. Set once by the
  /// Tracer's calibration, before any span is recorded.
  static inline int64_t span_cost = 0;
  static inline int64_t child_cost = 0;

  obs::LatencyHistogram total[kNumLayers][kNumSpanOps];
  obs::LatencyHistogram self[kNumLayers][kNumSpanOps];
  int64_t first_start_ns[kNumLayers][kNumSpanOps];
  int64_t last_end_ns[kNumLayers][kNumSpanOps];
  std::vector<uint64_t> instance_spans;
  std::vector<SpanRecord> kept;
  uint64_t spans = 0;

  /// Closed spans of the open request. They reach the histograms when
  /// the request's root span closes, so no histogram update runs inside
  /// a parent's timed window.
  struct Closed {
    size_t layer;
    size_t op;
    int64_t total_ns;
    int64_t self_ns;
  };
  std::vector<Closed> closed;

  ThreadSpans() {
    closed.reserve(64);
    Clear();
  }

  void Clear() {
    for (size_t l = 0; l < kNumLayers; ++l) {
      for (size_t o = 0; o < kNumSpanOps; ++o) {
        total[l][o].Clear();
        self[l][o].Clear();
        first_start_ns[l][o] = std::numeric_limits<int64_t>::max();
        last_end_ns[l][o] = 0;
      }
    }
    instance_spans.clear();
    kept.clear();
    closed.clear();
    spans = 0;
  }

  uint64_t NextId() { return (uint64_t{index + 1} << 40) | ++seq; }

  void Begin(Layer layer, SpanOp op, uint16_t instance) {
    if (instance >= instance_spans.size()) {
      instance_spans.resize(size_t{instance} + 1, 0);
    }
    ++instance_spans[instance];
    if (depth == 0 && dropped_depth == 0) {
      const bool rare_op = op == SpanOp::kBulkLoad || op == SpanOp::kRecover;
      ++requests;
      sampled =
          rare_op || sample_all || requests % Tracer::kSampleEvery == 0;
      keep_request =
          rare_op || (!sample_all && requests % Tracer::kKeepEvery == 0);
    }
    if (!sampled || depth == kMaxDepth) {
      ++dropped_depth;
      return;
    }
    Frame& f = stack[depth];
    f.id = NextId();
    f.child_ns = 0;
    f.layer = layer;
    f.op = op;
    f.instance = instance;
    if (depth == 0) {
      f.parent = 0;
      request = f.id;
    } else {
      f.parent = stack[depth - 1].id;
    }
    ++depth;
    f.start_ticks = CycleClock::Now();
  }

  void End(uint64_t epoch) {
    if (dropped_depth > 0) {
      --dropped_depth;
      return;
    }
    const uint64_t end_ticks = CycleClock::Now();
    Frame& f = stack[--depth];
    const int64_t ns = std::max<int64_t>(
        0, CycleClock::ToNanos(end_ticks - f.start_ticks) - span_cost);
    if (depth > 0) stack[depth - 1].child_ns += ns + child_cost;
    const size_t l = static_cast<size_t>(f.layer);
    const size_t o = static_cast<size_t>(f.op);
    closed.push_back(Closed{l, o, ns, ns - f.child_ns});
    ++spans;
    const bool rare_op =
        f.op == SpanOp::kBulkLoad || f.op == SpanOp::kRecover;
    if (rare_op || keep_request) {
      const int64_t start_ns = CycleClock::ToNanos(f.start_ticks - epoch);
      const int64_t end_ns = CycleClock::ToNanos(end_ticks - epoch);
      if (rare_op) {
        first_start_ns[l][o] = std::min(first_start_ns[l][o], start_ns);
        last_end_ns[l][o] = std::max(last_end_ns[l][o], end_ns);
      }
      if (kept.size() < Tracer::kKeepCapPerThread) {
        kept.push_back(SpanRecord{f.id, f.parent, request, start_ns, end_ns,
                                  index, f.instance, f.layer, f.op});
      }
    }
    if (depth > 0) return;
    for (const Closed& c : closed) {
      total[c.layer][c.op].Record(c.total_ns);
      self[c.layer][c.op].Record(c.self_ns);  // Record clamps below 0
    }
    closed.clear();
  }
};

namespace {

/// The calling thread's buffer. Trivially destructible, so the hot path
/// reads it without a TLS guard check.
thread_local ThreadSpans* t_buffer = nullptr;

/// Hands the calling thread's buffer back to the pool when it exits.
struct LocalHandle {
  ThreadSpans* buffer = nullptr;
  ~LocalHandle() {
    if (buffer != nullptr) Tracer::Get().Release(buffer);
  }
};

thread_local LocalHandle t_release;

/// Opens a span on construction and closes it on destruction when the
/// tracer is enabled; otherwise costs one relaxed load.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, SpanOp op, uint16_t instance) {
    Tracer& tracer = Tracer::Get();
    if (!tracer.enabled()) return;
    buffer_ = tracer.Local();
    epoch_ = tracer.EpochTicks();
    buffer_->Begin(layer, op, instance);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(epoch_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadSpans* buffer_ = nullptr;
  uint64_t epoch_ = 0;
};

}  // namespace

Tracer::Tracer() : epoch_(CycleClock::Now()) {
  // Calibrates the tick rate, then the span bookkeeping costs (medians
  // over many empty spans), before any span is recorded.
  CycleClock::ToNanos(1);
  constexpr int kRounds = 20000;
  auto median_ns = [](const obs::LatencyHistogram& h) {
    return static_cast<int64_t>(h.PercentileNanos(50));
  };
  auto cal = std::make_unique<ThreadSpans>();
  cal->sample_all = true;
  for (int i = 0; i < kRounds; ++i) {
    cal->Begin(Layer::kCore, SpanOp::kLookup, 0);
    cal->End(epoch_);
  }
  const int64_t empty =
      median_ns(cal->total[static_cast<size_t>(Layer::kCore)]
                          [static_cast<size_t>(SpanOp::kLookup)]);
  for (int i = 0; i < kRounds; ++i) {
    cal->Begin(Layer::kEngine, SpanOp::kLookup, 0);
    cal->Begin(Layer::kCore, SpanOp::kLookup, 0);
    cal->End(epoch_);
    cal->End(epoch_);
  }
  const int64_t with_child =
      median_ns(cal->total[static_cast<size_t>(Layer::kEngine)]
                          [static_cast<size_t>(SpanOp::kLookup)]);
  ThreadSpans::span_cost = empty;
  ThreadSpans::child_cost = std::max<int64_t>(0, with_child - empty);
}

double Tracer::SpanCostNs() const {
  return static_cast<double>(ThreadSpans::span_cost);
}

double Tracer::ChildCostNs() const {
  return static_cast<double>(ThreadSpans::child_cost);
}

Tracer& Tracer::Get() {
  // Never destroyed: thread-exit handlers may still release buffers
  // while the process tears down.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

uint16_t Tracer::RegisterInstance(Layer layer) {
  std::lock_guard<std::mutex> lock(mu_);
  instances_.push_back(layer);
  return static_cast<uint16_t>(instances_.size() - 1);
}

void Tracer::ClearInstances() {
  std::lock_guard<std::mutex> lock(mu_);
  instances_.clear();
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) buffer->Clear();
}

ThreadSpans* Tracer::Local() {
  if (t_buffer != nullptr) return t_buffer;
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.empty()) {
    buffers_.push_back(std::make_unique<ThreadSpans>());
    buffers_.back()->index = static_cast<uint32_t>(buffers_.size() - 1);
    free_.push_back(buffers_.back().get());
  }
  t_buffer = free_.back();
  free_.pop_back();
  t_release.buffer = t_buffer;
  return t_buffer;
}

void Tracer::Release(ThreadSpans* buffer) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(buffer);
}

std::unique_ptr<TraceSummary> Tracer::Collect() const {
  auto summary = std::make_unique<TraceSummary>();
  std::lock_guard<std::mutex> lock(mu_);
  summary->instance_layer = instances_;
  summary->instance_spans.assign(instances_.size(), 0);
  for (const auto& buffer : buffers_) {
    for (size_t l = 0; l < kNumLayers; ++l) {
      for (size_t o = 0; o < kNumSpanOps; ++o) {
        summary->total[l][o].Merge(buffer->total[l][o]);
        summary->self[l][o].Merge(buffer->self[l][o]);
        summary->first_start_ns[l][o] = std::min(
            summary->first_start_ns[l][o], buffer->first_start_ns[l][o]);
        summary->last_end_ns[l][o] =
            std::max(summary->last_end_ns[l][o], buffer->last_end_ns[l][o]);
      }
    }
    for (size_t i = 0;
         i < buffer->instance_spans.size() && i < instances_.size(); ++i) {
      summary->instance_spans[i] += buffer->instance_spans[i];
    }
    summary->kept.insert(summary->kept.end(), buffer->kept.begin(),
                         buffer->kept.end());
    summary->spans += buffer->spans;
  }
  std::sort(summary->kept.begin(), summary->kept.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return summary;
}

SpanIndex::SpanIndex(std::unique_ptr<KvIndex> inner, Layer layer)
    : inner_(std::move(inner)),
      layer_(layer),
      instance_(Tracer::Get().RegisterInstance(layer)) {}

void SpanIndex::BulkLoad(std::span<const KeyValue> data) {
  ScopedSpan span(layer_, SpanOp::kBulkLoad, instance_);
  inner_->BulkLoad(data);
}

bool SpanIndex::Lookup(Key key, Value* value) const {
  ScopedSpan span(layer_, SpanOp::kLookup, instance_);
  return inner_->Lookup(key, value);
}

void SpanIndex::LookupBatch(std::span<const Key> keys, Value* values,
                            bool* found) const {
  ScopedSpan span(layer_, SpanOp::kLookupBatch, instance_);
  inner_->LookupBatch(keys, values, found);
}

bool SpanIndex::Insert(Key key, Value value) {
  ScopedSpan span(layer_, SpanOp::kInsert, instance_);
  return inner_->Insert(key, value);
}

bool SpanIndex::Erase(Key key) {
  ScopedSpan span(layer_, SpanOp::kErase, instance_);
  return inner_->Erase(key);
}

size_t SpanIndex::RangeScan(Key lo, Key hi,
                            std::vector<KeyValue>* out) const {
  ScopedSpan span(layer_, SpanOp::kRangeScan, instance_);
  return inner_->RangeScan(lo, hi, out);
}

bool SpanIndex::Recover() {
  ScopedSpan span(layer_, SpanOp::kRecover, instance_);
  return inner_->Recover();
}

KvIndex* Unwrap(KvIndex* index) {
  while (auto* span = dynamic_cast<SpanIndex*>(index)) index = &span->inner();
  return index;
}

namespace {

std::unique_ptr<KvIndex> BuildSpan(const chameleon::SpecNode& node,
                                   const chameleon::SpecBuildContext& ctx,
                                   chameleon::SpecError* error) {
  Layer layer = Layer::kCore;
  if (node.options.size() != 1 || !node.options[0].key.empty() ||
      !ParseLayer(node.options[0].value, &layer)) {
    error->pos = node.pos;
    error->message =
        "Span takes one layer name: Span(engine|storage|tiered|core)";
    return nullptr;
  }
  std::unique_ptr<KvIndex> inner =
      chameleon::BuildIndexSpec(*node.inner, ctx, error);
  if (inner == nullptr) return nullptr;
  return std::make_unique<SpanIndex>(std::move(inner), layer);
}

}  // namespace

void RegisterSpanDecorator() {
  chameleon::RegisterIndexDecorator(
      "Span", chameleon::DecoratorInfo{
                  BuildSpan, /*wants_count=*/false,
                  "Span(<layer>):<spec>   benchmark tracing: records a span "
                  "around every call into <spec>"});
}

}  // namespace perfbench
