#ifndef CHAMELEON_UTIL_PERIODIC_WORKER_H_
#define CHAMELEON_UTIL_PERIODIC_WORKER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>

namespace chameleon {

/// One background thread that runs a body once per interval: the one
/// lifecycle behind the Chameleon retrainer and the metrics sampler
/// (DESIGN.md §7). The thread sleeps a full
/// interval before each run, so the first run comes one interval after
/// Start.
///
/// A PauseGuard held anywhere blocks new runs (a period that ends while
/// paused is skipped) and, on construction, waits out the run in
/// flight; owners take one around work that must not overlap the body.
/// With no worker running a guard waits for nothing.
///
/// Start, Stop, running() and guards may be called from any thread.
/// The body runs on the worker thread only and must not throw (an
/// exception escaping it ends the process, as from any std::thread) nor
/// take a PauseGuard on its own worker.
class PeriodicWorker {
 public:
  PeriodicWorker() = default;
  /// Stops the worker.
  ~PeriodicWorker();

  PeriodicWorker(const PeriodicWorker&) = delete;
  PeriodicWorker& operator=(const PeriodicWorker&) = delete;

  /// Starts the thread running `body` every `interval`. Returns false,
  /// doing nothing, when the worker already runs.
  bool Start(std::chrono::milliseconds interval, std::function<void()> body);
  /// Stops the thread and joins it, so no run is in flight on return.
  /// A no-op when the worker is not running.
  void Stop();
  /// True between a successful Start and the matching Stop.
  bool running() const;

  /// Scoped pause (see the class comment). Guards nest and may be held
  /// by several threads at once.
  class [[nodiscard]] PauseGuard {
   public:
    explicit PauseGuard(const PeriodicWorker& worker);
    ~PauseGuard();

    PauseGuard(const PauseGuard&) = delete;
    PauseGuard& operator=(const PauseGuard&) = delete;

   private:
    const PeriodicWorker& worker_;
  };

 private:
  void Loop(std::chrono::milliseconds interval,
            const std::function<void()>& body);

  // Serializes Start and Stop, and is held across the join, so a Stop
  // returns only once the thread is gone.
  std::mutex lifecycle_mu_;
  std::thread thread_;  // guarded by lifecycle_mu_

  // Guards the run state below; mutable because a guard pauses a const
  // owner (saving or measuring an index is logically read-only).
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool running_ = false;
  bool stop_ = false;
  bool in_run_ = false;
  mutable size_t pauses_ = 0;
};

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_PERIODIC_WORKER_H_
