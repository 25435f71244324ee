#include "src/util/periodic_worker.h"

#include <utility>

namespace chameleon {

PeriodicWorker::~PeriodicWorker() { Stop(); }

bool PeriodicWorker::Start(std::chrono::milliseconds interval,
                           std::function<void()> body) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (thread_.joinable()) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = true;
    stop_ = false;
  }
  thread_ = std::thread([this, interval, body = std::move(body)] {
    Loop(interval, body);
  });
  return true;
}

void PeriodicWorker::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

bool PeriodicWorker::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void PeriodicWorker::Loop(std::chrono::milliseconds interval,
                          const std::function<void()>& body) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (cv_.wait_for(lock, interval, [this] { return stop_; })) break;
    // A pause skips this period; the body runs again at the first
    // period that ends with no guard held.
    if (pauses_ > 0) continue;
    in_run_ = true;
    lock.unlock();
    body();
    lock.lock();
    in_run_ = false;
    cv_.notify_all();
  }
}

PeriodicWorker::PauseGuard::PauseGuard(const PeriodicWorker& worker)
    : worker_(worker) {
  std::unique_lock<std::mutex> lock(worker_.mu_);
  ++worker_.pauses_;
  worker_.cv_.wait(lock, [this] { return !worker_.in_run_; });
}

PeriodicWorker::PauseGuard::~PauseGuard() {
  std::lock_guard<std::mutex> lock(worker_.mu_);
  --worker_.pauses_;
}

}  // namespace chameleon
