// Deterministic parallel experiment runner.
//
// Every experiment in this repo — SimCheck fuzz iterations, bench sweep
// cells, workload-sweep test cases — is an *independent* function of its
// inputs: each job builds its own Cluster (own Simulator, own Rng, own
// MetricsRegistry) and shares no mutable state with its neighbours.  Runner
// exploits that embarrassing parallelism without giving up reproducibility:
//
//   - a fixed pool of `jobs` worker threads, spun up once;
//   - jobs are claimed by atomic next-index, NOT work stealing — which
//     worker runs a job is scheduling noise, but *what* each job computes
//     depends only on its index;
//   - results are committed into a vector slot chosen by submission index,
//     so the collected output is byte-identical to a serial run regardless
//     of completion order (tests/test_exp.cpp proves it);
//   - jobs <= 1 runs everything inline on the calling thread — the serial
//     reference path, with no threads involved at all.
//
// The first exception thrown by any job is rethrown on the calling thread
// after the batch drains; remaining jobs still run (their slots are valid).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ibridge::exp {

class Runner {
 public:
  /// `jobs` is the worker-thread count; <= 1 means run inline (serial).
  explicit Runner(int jobs = 1);
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  int jobs() const { return jobs_; }

  /// Invoke fn(i) for every i in [0, n), distributed over the pool; blocks
  /// until all n calls returned.  fn must not touch shared mutable state
  /// except through its own index (e.g. writing out[i]).
  void run(int n, const std::function<void(int)>& fn);

  /// run() collecting return values: out[i] = fn(i), committed by index.
  /// R must be default-constructible and movable.
  template <typename R>
  std::vector<R> map(int n, const std::function<R(int)>& fn) {
    std::vector<R> out(static_cast<std::size_t>(n < 0 ? 0 : n));
    run(n, [&](int i) { out[static_cast<std::size_t>(i)] = fn(i); });
    return out;
  }

  /// A sensible default for --jobs: hardware concurrency clamped to [1, 16]
  /// (results never depend on it — only wall time does).
  static int default_jobs();

 private:
  void worker();

  const int jobs_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a batch
  std::condition_variable done_cv_;   // run() waits for completion
  const std::function<void(int)>* fn_ = nullptr;
  int batch_n_ = 0;
  int next_ = 0;       // next unclaimed job index
  int completed_ = 0;  // jobs finished (success or failure)
  bool stop_ = false;
  std::exception_ptr error_;
};

}  // namespace ibridge::exp
