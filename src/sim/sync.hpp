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
#include <utility>
#include <vector>

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

}  // namespace detail

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

template <typename T>
class Completion;

/// Fork/join for a bounded set of children: coroutines or completion
/// records.
///
///   JoinSet js(sim);
///   for (...) js.add(subrequest(...));  // or js.add(record) after submit
///   co_await js.join();            // resumes when every child finished
///
/// The JoinSet must outlive its children, tasks and records alike (keep it
/// on the awaiting coroutine's frame and always co_await join() before
/// returning).  Each task child rides a DetachedTask wrapper whose pooled
/// frame owns the child and frees itself on completion, so a fork/join
/// costs no container allocation — the property the allocation-free client
/// request path depends on.  A record child needs no frame: completing it
/// defers its arrival where it would defer an awaiting child's resume, so
/// both kinds of child spend the same events.
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

  /// Add a submitted, still pending record as a child.  The JoinSet must be
  /// its only consumer, and its producer must complete it on this JoinSet's
  /// simulator.
  template <typename T>
  void add(Completion<T>& c) {
    assert(!c.ready_ && !c.waiter_ && c.join_ == nullptr &&
           "JoinSet::add: record is complete or already consumed");
    ++total_;
    c.join_ = this;
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

 private:
  template <typename T>
  friend class Completion;

  DetachedTask wrap(Task<> t) {
    co_await t;
    arrive();
  }

  void arrive() {
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

/// One-shot completion record for a device request.  Whoever submits the
/// request owns the record and keeps it where it already keeps that
/// request's state (a coroutine frame, a pooled vector); the device holds a
/// raw pointer to it while the request is queued and fills it in place
/// through complete().  So a record must stay put from submission until its
/// consumer has woken: size a vector of records before the first submit.
///
/// A record has one consumer at most: a coroutine that co_awaits it, or a
/// JoinSet it was added to.  complete() stores the value and defers the
/// awaiter's resume, else the JoinSet's arrival, else nothing: one event at
/// most, at the tick the device finishes, and no allocation.  A request
/// nobody waits for is submitted without a record.
template <typename T>
class Completion {
 public:
  Completion() = default;
  // Movable only while idle, so a vector of records can be sized before
  // the first submit; a copy of a submitted record would never complete.
  Completion(Completion&& idle) noexcept {
    assert(!idle.ready_ && !idle.waiter_ && idle.join_ == nullptr &&
           "only an idle record may move");
    (void)idle;
  }
  Completion(const Completion&) = delete;
  Completion& operator=(const Completion&) = delete;
  Completion& operator=(Completion&&) = delete;

  bool ready() const { return ready_; }

  /// The value, once complete (driver code after run(), tests).
  const T& get() const {
    assert(ready_);
    return value_;
  }

  bool await_ready() const noexcept { return ready_; }
  void await_suspend(std::coroutine_handle<> h) {
    assert(!waiter_ && join_ == nullptr && "only one consumer per record");
    waiter_ = h;
  }
  T await_resume() const {
    assert(ready_);
    return value_;
  }

  /// Producer side: store `v` and wake the consumer, if any, through `sim`.
  void complete(Simulator& sim, T v) {
    assert(!ready_ && "completion record completed twice");
    value_ = std::move(v);
    ready_ = true;
    if (waiter_) {
      auto h = std::exchange(waiter_, nullptr);
      sim.defer([h] { h.resume(); });
    } else if (join_ != nullptr) {
      JoinSet* js = std::exchange(join_, nullptr);
      sim.defer([js] { js->arrive(); });
    }
  }

 private:
  friend class JoinSet;

  T value_{};
  bool ready_ = false;
  std::coroutine_handle<> waiter_;
  JoinSet* join_ = nullptr;
};

}  // namespace ibridge::sim
