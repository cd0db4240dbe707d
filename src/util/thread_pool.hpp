#pragma once
// A small fixed-size thread pool with a blocking parallel_for.
//
// APSS uses data-parallel loops in three places: the CPU kNN baseline
// (queries in parallel), the AP simulator (independent NFAs / board
// configurations in parallel), and Monte Carlo sweeps. A statically
// partitioned parallel_for with chunked self-scheduling covers all of them;
// no futures or task graphs are needed.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace apss::util {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers (0 = hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(i) for i in [begin, end). Blocks until all iterations finish.
  /// Iterations are claimed in chunks of `grain` via an atomic cursor, so
  /// irregular per-iteration cost still load-balances.
  ///
  /// If a body throws, the FIRST exception (in claim order) is captured,
  /// remaining unclaimed chunks are abandoned, and the exception is
  /// rethrown here — on the submitting thread — once every worker has
  /// drained out of the job. Chunks already running elsewhere still finish.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1);

  /// Runs fn(chunk_begin, chunk_end) over disjoint chunks covering
  /// [begin, end). Useful when per-chunk setup (e.g. a scratch buffer)
  /// should be amortized. Same exception contract as parallel_for.
  void parallel_for_chunks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& fn,
      std::size_t grain = 1);

 private:
  struct Job {
    std::atomic<std::size_t> cursor{0};
    std::size_t end = 0;
    std::size_t grain = 1;
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::atomic<std::size_t> remaining_workers{0};
    /// First exception thrown by a body (claim order); guarded by the
    /// pool mutex, rethrown on the submitting thread after the drain.
    std::atomic<bool> failed{false};
    std::exception_ptr exception;
  };

  void worker_loop();
  void run_job(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::mutex submit_mutex_;  // serializes concurrent parallel_for callers
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  Job* current_job_ = nullptr;
  std::uint64_t job_epoch_ = 0;
  bool shutting_down_ = false;
};

}  // namespace apss::util
