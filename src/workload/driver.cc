#include "src/workload/driver.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics_sampler.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace chameleon {
namespace {

/// Per-thread accumulation for one replayed chunk.
struct ChunkResult {
  size_t misses = 0;
  int64_t busy_ns = 0;
};

/// Executes one operation; returns true on a miss. `scan_buf` is the
/// caller's reusable RangeScan output buffer. kUpdate is erase +
/// reinsert of the same key (KvIndex has no in-place update): both
/// halves always run, so a missed erase still leaves the key present
/// afterwards and the stream's validity invariant holds.
bool ExecuteOp(KvIndex* index, const Operation& op,
               std::vector<KeyValue>* scan_buf) {
  switch (op.type) {
    case OpType::kLookup: {
      Value v;
      return !index->Lookup(op.key, &v);
    }
    case OpType::kInsert:
      return !index->Insert(op.key, op.value);
    case OpType::kErase:
      return !index->Erase(op.key);
    case OpType::kUpdate: {
      const bool erased = index->Erase(op.key);
      const bool inserted = index->Insert(op.key, op.value);
      return !erased || !inserted;
    }
    case OpType::kScan:
      scan_buf->clear();
      return index->RangeScan(op.key, static_cast<Key>(op.value), scan_buf) ==
             0;
  }
  return true;
}

/// The replay kernel. At batch = 1 every op, lookups included, goes
/// through ExecuteOp under its own clock pair: the per-op loop every
/// harness ran before the driver existed, kept op-for-op identical so
/// R = 1 numbers stay comparable across PRs. At batch > 1 maximal runs
/// of consecutive lookups go through LookupBatch in groups of `batch`
/// under one clock pair, and the histogram records batch time / batch
/// size for each member; writes and scans still execute one at a time,
/// in order.
ChunkResult ReplayChunk(KvIndex* index, std::span<const Operation> ops,
                        size_t batch, obs::LatencyHistogram* hist) {
  ChunkResult result;
  Timer timer;
  std::vector<Key> keys(batch);
  std::vector<Value> values(batch);
  std::unique_ptr<bool[]> found(new bool[batch]);
  std::vector<KeyValue> scan_buf;
  size_t i = 0;
  while (i < ops.size()) {
    size_t n = 0;  // lookups batched into this event
    while (batch > 1 && n < batch && i + n < ops.size() &&
           ops[i + n].type == OpType::kLookup) {
      keys[n] = ops[i + n].key;
      ++n;
    }
    const bool batched = n > 0;
    if (hist != nullptr) timer.Reset();
    if (batched) {
      index->LookupBatch(std::span<const Key>(keys.data(), n), values.data(),
                         found.get());
    } else {
      result.misses += ExecuteOp(index, ops[i], &scan_buf);
      n = 1;
    }
    if (hist != nullptr) {
      const int64_t ns = timer.ElapsedNanos();
      for (size_t k = 0; k < n; ++k) {
        hist->Record(ns / static_cast<int64_t>(n));
      }
      result.busy_ns += ns;
    }
    if (batched) {
      for (size_t k = 0; k < n; ++k) result.misses += !found[k];
    }
    i += n;
  }
  if (hist == nullptr) result.busy_ns = timer.ElapsedNanos();
  return result;
}

}  // namespace

ReplayResult Replay(KvIndex* index, std::span<const Operation> ops,
                    const ReplayOptions& options,
                    obs::LatencyHistogram* hist) {
  // Register the replayed index as the sampler's source for the
  // duration: every bench driving through here gets per-tick unit
  // heatmaps (and writer-lock-wait maps) in its --series output with no
  // harness wiring. Safe with concurrent replay threads (the snapshots'
  // contracts) and scoped so the sampler can never touch the index
  // after Replay returns.
  obs::ScopedIndexSource telemetry(
      [index] { return index->HeatmapSnapshot(); },
      [index] { return index->WriteContentionSnapshot(); });
  const size_t batch = std::max<size_t>(1, options.batch);
  const size_t warmup = std::min(options.warmup, ops.size());
  const std::span<const Operation> measured = ops.subspan(warmup);

  ReplayResult result;
  result.ops = measured.size();

  const size_t threads =
      std::max<size_t>(1, std::min(options.threads, std::max<size_t>(
                                                        1, measured.size())));
  // Mixed/write streams on R > 1 threads need multi-writer support from
  // the stack. A stack that declines is refused before any op runs,
  // warm-up included, so the index is left untouched.
  const bool partition_by_key =
      threads > 1 &&
      std::any_of(measured.begin(), measured.end(), [](const Operation& op) {
        return IsWriteOp(op.type);  // kScan is a read: chunked like lookups
      });
  if (partition_by_key && !index->EnableConcurrentWrites()) {
    throw std::invalid_argument(
        std::string(index->Name()) +
        " does not support concurrent writes; a write-bearing stream "
        "cannot replay on " + std::to_string(threads) + " threads");
  }
  if (warmup > 0) {
    // Applied but never measured: no histogram, no miss accounting.
    ReplayChunk(index, ops.subspan(0, warmup), batch, nullptr);
  }

  if (threads == 1) {
    // Single-threaded fast path: record straight into the caller's
    // histogram; busy and wall time coincide in hist == nullptr mode
    // (exactly the historical single-threaded replay).
    Timer wall;
    const ChunkResult chunk = ReplayChunk(index, measured, batch, hist);
    result.wall_ns = wall.ElapsedNanos();
    result.misses = chunk.misses;
    result.busy_ns = chunk.busy_ns;
  } else {
    // Read-only streams get a contiguous chunk per thread; write-bearing
    // streams are partitioned by key ownership (thread t replays every
    // op with key % threads == t, in stream order). Both partitions
    // depend only on (stream, threads) — deterministic — and the key
    // partition additionally preserves per-key op order across threads,
    // so the final index state matches a serial replay bit-for-bit (the
    // oracle invariant the multi-writer stress tests check). Per-thread
    // histograms avoid cross-thread contention on hot buckets and are
    // merged exactly at the end.
    std::vector<std::vector<Operation>> owned(partition_by_key ? threads : 0);
    if (partition_by_key) {
      for (auto& v : owned) v.reserve(measured.size() / threads + 1);
      for (const Operation& op : measured) {
        owned[static_cast<size_t>(op.key) % threads].push_back(op);
      }
    }
    std::vector<ChunkResult> chunks(threads);
    std::vector<obs::LatencyHistogram> hists(hist != nullptr ? threads : 0);
    Timer wall;
    const std::exception_ptr error = RunOnThreads(threads, [&](size_t t) {
      std::span<const Operation> mine;
      if (partition_by_key) {
        mine = owned[t];
      } else {
        const size_t begin = t * measured.size() / threads;
        const size_t end = (t + 1) * measured.size() / threads;
        mine = measured.subspan(begin, end - begin);
      }
      chunks[t] = ReplayChunk(index, mine, batch,
                                 hist != nullptr ? &hists[t] : nullptr);
    });
    result.wall_ns = wall.ElapsedNanos();
    if (error) std::rethrow_exception(error);
    for (size_t t = 0; t < threads; ++t) {
      result.misses += chunks[t].misses;
      result.busy_ns += chunks[t].busy_ns;
      if (hist != nullptr) hist->Merge(hists[t]);
    }
  }

  if (result.misses > 0) {
    std::fprintf(stderr, "WARNING: %zu missed operations on %.*s\n",
                 result.misses, static_cast<int>(index->Name().size()),
                 index->Name().data());
  }
  return result;
}

namespace {

/// Waits until the steady clock reaches `deadline_ns`. Coarse sleep to
/// within ~100us, then spin — keeps the dispatcher's arrival jitter
/// well under typical inter-arrival gaps without burning a core during
/// long waits.
void WaitUntilNanos(int64_t deadline_ns) {
  constexpr int64_t kSpinSlackNs = 100'000;
  int64_t now = NowNanos();
  if (deadline_ns - now > kSpinSlackNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinSlackNs));
  }
  while (NowNanos() < deadline_ns) {
  }
}

}  // namespace

OpenLoopResult RunOpenLoop(KvIndex* index, std::span<const Operation> ops,
                           const OpenLoopOptions& options) {
  obs::ScopedIndexSource telemetry(
      [index] { return index->HeatmapSnapshot(); },
      [index] { return index->WriteContentionSnapshot(); });

  OpenLoopResult result;
  result.target_rate = std::max(options.rate_ops_per_sec, 1.0);
  const double interval_ns = 1e9 / result.target_rate;

  std::vector<KeyValue> scan_buf;
  const size_t warmup = std::min(options.warmup, ops.size());
  for (const Operation& op : ops.first(warmup)) {
    ExecuteOp(index, op, &scan_buf);
  }
  const std::span<const Operation> measured = ops.subspan(warmup);

  const int64_t t0 = NowNanos();
  int64_t last_completion = t0;
  for (size_t i = 0; i < measured.size(); ++i) {
    const Operation& op = measured[i];
    // Arrival i is *scheduled* at t0 + i/rate. If the previous op ran
    // long we are already past the intended time: dispatch immediately
    // and let the sample carry the queueing delay (the CO-safe part —
    // a closed-loop harness would instead silently postpone the
    // arrival and never record the wait).
    const int64_t intended =
        t0 + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
    if (intended > last_completion) WaitUntilNanos(intended);
    const int64_t start = NowNanos();
    const bool miss = ExecuteOp(index, op, &scan_buf);
    const int64_t end = NowNanos();
    last_completion = end;

    const int64_t lag = end - intended;
    result.misses += miss;
    result.latency.Record(lag);
    result.latency_by_type[static_cast<size_t>(op.type)].Record(lag);
    result.service.Record(end - start);
    if (lag > result.max_lag_ns) result.max_lag_ns = lag;
    // Backlog at completion: arrivals scheduled in [intended, end] that
    // are necessarily still queued behind this op (this one included).
    const size_t backlog =
        1 + static_cast<size_t>(static_cast<double>(lag > 0 ? lag : 0) /
                                interval_ns);
    if (backlog > result.max_backlog) result.max_backlog = backlog;
  }
  result.ops = measured.size();
  result.wall_ns = NowNanos() - t0;
  if (result.misses > 0) {
    std::fprintf(stderr, "WARNING: %zu missed operations on %.*s\n",
                 result.misses, static_cast<int>(index->Name().size()),
                 index->Name().data());
  }
  return result;
}

}  // namespace chameleon
