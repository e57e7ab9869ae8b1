#include "exp/runner.hpp"

#include <algorithm>
#include <utility>

namespace ibridge::exp {

Runner::Runner(int jobs) : jobs_(std::max(1, jobs)) {
  if (jobs_ > 1) {
    workers_.reserve(static_cast<std::size_t>(jobs_));
    for (int i = 0; i < jobs_; ++i) {
      workers_.emplace_back([this] { worker(); });
    }
  }
}

Runner::~Runner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Runner::run(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1) {
    // Serial reference path: no threads, no locks, exact program order.
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }

  std::unique_lock<std::mutex> lock(mu_);
  fn_ = &fn;
  batch_n_ = n;
  next_ = 0;
  completed_ = 0;
  work_cv_.notify_all();
  done_cv_.wait(lock, [this] { return completed_ == batch_n_; });
  fn_ = nullptr;
  batch_n_ = 0;
  if (error_ != nullptr) {
    std::exception_ptr err = std::exchange(error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void Runner::worker() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock,
                  [this] { return stop_ || (fn_ != nullptr && next_ < batch_n_); });
    if (stop_) return;
    while (fn_ != nullptr && next_ < batch_n_) {
      const int i = next_++;
      const std::function<void(int)>* fn = fn_;
      lock.unlock();
      std::exception_ptr err;
      try {
        (*fn)(i);
      } catch (...) {
        err = std::current_exception();
      }
      lock.lock();
      if (err != nullptr && error_ == nullptr) error_ = std::move(err);
      if (++completed_ == batch_n_) done_cv_.notify_all();
    }
  }
}

int Runner::default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, 16);
}

}  // namespace ibridge::exp
