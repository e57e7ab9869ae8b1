// Awaitable synchronization primitives for simulation coroutines.
//
// Everything here resumes waiters *through the event queue* (Simulator::defer)
// rather than inline.  That keeps resumption order deterministic (FIFO at the
// current tick) and bounds native stack depth regardless of how many waiters
// a broadcast wakes.
#pragma once

#include <cassert>
#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/mem_pool.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace ibridge::sim {

/// `co_await Delay{sim, t}` — suspend for t of simulated time.
struct Delay {
  Simulator& sim;
  SimTime amount;

  bool await_ready() const noexcept { return amount == SimTime::zero(); }
  void await_suspend(std::coroutine_handle<> h) const {
    sim.schedule(amount, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

namespace detail {

/// Vector-backed FIFO ring of coroutine handles.  std::deque allocates and
/// frees 512-byte nodes as elements cross chunk boundaries, so a FIFO that
/// churns under steady load keeps hitting the allocator; the ring doubles a
/// flat buffer instead and reaches a steady state with zero allocations.
class HandleRing {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void push(std::coroutine_handle<> h) {
    if (count_ == buf_.size()) grow();
    std::size_t j = head_ + count_;
    if (j >= buf_.size()) j -= buf_.size();
    buf_[j] = h;
    ++count_;
  }

  std::coroutine_handle<> pop() {
    assert(count_ > 0);
    const std::coroutine_handle<> h = buf_[head_];
    head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
    --count_;
    return h;
  }

  /// Ensure capacity for at least `n` queued handles, so a waiter high-water
  /// mark first reached mid-run never reallocates the ring.
  void reserve(std::size_t n) {
    if (buf_.size() >= n) return;
    std::size_t cap = buf_.empty() ? 16 : buf_.size();
    while (cap < n) cap *= 2;
    std::vector<std::coroutine_handle<>> nb(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      std::size_t j = head_ + i;
      if (j >= buf_.size()) j -= buf_.size();
      nb[i] = buf_[j];
    }
    buf_ = std::move(nb);
    head_ = 0;
  }

 private:
  void grow() {
    const std::size_t old = buf_.size();
    std::vector<std::coroutine_handle<>> nb(old == 0 ? 16 : old * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      std::size_t j = head_ + i;
      if (j >= old) j -= old;
      nb[i] = buf_[j];
    }
    buf_ = std::move(nb);
    head_ = 0;
  }

  std::vector<std::coroutine_handle<>> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Shared one-shot state for SimFuture/SimPromise.
template <typename T>
struct FutureState {
  Simulator* sim = nullptr;
  std::optional<T> value;
  std::coroutine_handle<> waiter;

  void fulfill(T v) {
    assert(!value.has_value() && "SimPromise fulfilled twice");
    value = std::move(v);
    if (waiter) {
      auto h = std::exchange(waiter, nullptr);
      sim->defer([h] { h.resume(); });
    }
  }
};

}  // namespace detail

template <typename T>
class SimPromise;

/// One-shot future.  `co_await future` suspends until the matching
/// SimPromise::set_value runs, then yields the value.  Copyable handle.
template <typename T>
class SimFuture {
 public:
  SimFuture() = default;

  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ && state_->value.has_value(); }

  bool await_ready() const noexcept { return ready(); }
  void await_suspend(std::coroutine_handle<> h) {
    assert(state_ && !state_->waiter && "only one waiter per SimFuture");
    state_->waiter = h;
  }
  T await_resume() {
    assert(state_->value.has_value());
    return std::move(*state_->value);
  }

  /// Non-coroutine access once ready (used from driver code after run()).
  const T& get() const {
    assert(ready());
    return *state_->value;
  }

 private:
  friend class SimPromise<T>;
  explicit SimFuture(std::shared_ptr<detail::FutureState<T>> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Producer side of SimFuture.
template <typename T>
class SimPromise {
 public:
  // The one-shot shared state rides the thread's coroutine-frame pool: a
  // promise/future pair lives exactly as long as one request, so the node
  // freed at completion is recycled by the next submit and steady-state
  // request churn never touches the global allocator.  Thread-locality holds
  // for the same reason it does for Task frames: a simulation, every shard
  // included, runs on one thread, so a state is freed on the thread that
  // allocated it.
  explicit SimPromise(Simulator& sim)
      : state_(std::allocate_shared<detail::FutureState<T>>(
            PoolAllocator<detail::FutureState<T>>(frame_pool()))) {
    state_->sim = &sim;
  }

  SimFuture<T> get_future() const { return SimFuture<T>(state_); }
  void set_value(T v) const { state_->fulfill(std::move(v)); }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Counting event: waiters block until `count` arrivals have happened.
/// Reusable (auto-resets), like an MPI barrier across `parties` coroutines.
class SyncBarrier {
 public:
  SyncBarrier(Simulator& sim, int parties) : sim_(sim), parties_(parties) {
    assert(parties > 0);
  }

  struct Awaiter {
    SyncBarrier& b;
    bool await_ready() const noexcept {
      // The last arriver does not suspend at all.
      return b.arrived_ + 1 == b.parties_ && (b.release(), true);
    }
    void await_suspend(std::coroutine_handle<> h) {
      ++b.arrived_;
      b.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  /// `co_await barrier.arrive()` — block until all parties arrive.
  Awaiter arrive() { return Awaiter{*this}; }

  int arrived() const { return arrived_; }

 private:
  friend struct Awaiter;
  void release() {
    arrived_ = 0;
    auto batch = std::move(waiters_);
    waiters_.clear();
    for (auto h : batch) sim_.defer([h] { h.resume(); });
  }

  Simulator& sim_;
  int parties_;
  int arrived_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore with FIFO wakeup.
class Semaphore {
 public:
  Semaphore(Simulator& sim, int initial) : sim_(sim), count_(initial) {}

  struct Awaiter {
    Semaphore& s;
    bool await_ready() const noexcept {
      if (s.count_ > 0) {
        --s.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { s.waiters_.push(h); }
    void await_resume() const noexcept {}
  };

  Awaiter acquire() { return Awaiter{*this}; }

  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.pop();
      sim_.defer([h] { h.resume(); });
    } else {
      ++count_;
    }
  }

  int available() const { return count_; }

  /// Pre-size the waiter ring for `n` concurrent blocked acquirers (see
  /// HandleRing::reserve).
  void reserve(std::size_t n) { waiters_.reserve(n); }

 private:
  friend struct Awaiter;
  Simulator& sim_;
  int count_;
  detail::HandleRing waiters_;  ///< FIFO; ring, so contention never allocates
};

/// Owns a set of top-level coroutines and tracks their completion.
/// Top-level simulation actors are spawned here; the group keeps their frames
/// alive until they finish (finished frames at the front are reaped on the
/// next spawn, so long-running groups stay bounded).
class TaskGroup {
 public:
  explicit TaskGroup(Simulator& sim) : sim_(sim) {}

  /// Schedule `t` to start at the current simulation time.
  void spawn(Task<> t) {
    while (!tasks_.empty() && tasks_.front().finished()) tasks_.pop_front();
    tasks_.push_back(std::move(t));
    Task<>* slot = &tasks_.back();
    sim_.defer([slot] { slot->start(); });
  }

  bool all_finished() const {
    for (const auto& t : tasks_) {
      if (!t.finished()) return false;
    }
    return true;
  }

  std::size_t size() const { return tasks_.size(); }

 private:
  Simulator& sim_;
  std::deque<Task<>> tasks_;  // deque: stable addresses for the start lambda
};

/// Fork/join for a bounded set of child coroutines.
///
///   JoinSet js(sim);
///   for (...) js.add(subrequest(...));
///   co_await js.join();            // resumes when every child finished
///
/// The JoinSet must outlive its children (keep it on the awaiting coroutine's
/// frame and always co_await join() before returning).  Each child rides a
/// DetachedTask wrapper whose pooled frame owns the child and frees itself on
/// completion, so a fork/join costs no container allocation — the property
/// the allocation-free client request path depends on.
class JoinSet {
 public:
  explicit JoinSet(Simulator& sim) : sim_(sim) {}
  JoinSet(const JoinSet&) = delete;
  JoinSet& operator=(const JoinSet&) = delete;

  /// Add and immediately start a child task.
  void add(Task<> t) {
    ++total_;
    wrap(std::move(t));  // eager: runs until the child's first suspension
  }

  struct Awaiter {
    JoinSet& js;
    bool await_ready() const noexcept { return js.done_ == js.total_; }
    void await_suspend(std::coroutine_handle<> h) {
      assert(!js.waiter_ && "JoinSet supports a single joiner");
      js.waiter_ = h;
    }
    void await_resume() const noexcept {}
  };

  /// Suspend until all added children have completed.
  Awaiter join() { return Awaiter{*this}; }

  std::size_t pending() const { return total_ - done_; }

 private:
  DetachedTask wrap(Task<> t) {
    co_await t;
    ++done_;
    if (waiter_ && done_ == total_) {
      auto h = std::exchange(waiter_, nullptr);
      sim_.defer([h] { h.resume(); });
    }
  }

  Simulator& sim_;
  std::size_t total_ = 0;
  std::size_t done_ = 0;
  std::coroutine_handle<> waiter_ = nullptr;
};

}  // namespace ibridge::sim
