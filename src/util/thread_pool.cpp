#include "util/thread_pool.hpp"

#include <algorithm>

namespace apss::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) {
    t.join();
  }
}

namespace {
// Set while a pool worker (or a caller participating in a job) is running a
// job body; nested parallel_for calls then degrade to serial execution
// instead of deadlocking.
thread_local bool t_inside_pool_job = false;

// RAII so the flag survives a throwing job body: a plain assignment after
// the loop would leave it stuck true and silently serialize every later
// parallel_for on that thread.
struct InsideJobGuard {
  bool prev;
  InsideJobGuard() : prev(t_inside_pool_job) { t_inside_pool_job = true; }
  ~InsideJobGuard() { t_inside_pool_job = prev; }
  InsideJobGuard(const InsideJobGuard&) = delete;
  InsideJobGuard& operator=(const InsideJobGuard&) = delete;
};
}  // namespace

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] {
        return shutting_down_ || (current_job_ != nullptr && job_epoch_ != seen_epoch);
      });
      if (shutting_down_) {
        return;
      }
      job = current_job_;
      seen_epoch = job_epoch_;
    }
    run_job(*job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (job->remaining_workers.fetch_sub(1) == 1) {
        done_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::run_job(Job& job) {
  InsideJobGuard guard;
  const std::size_t grain = std::max<std::size_t>(1, job.grain);
  while (!job.failed.load(std::memory_order_acquire)) {
    const std::size_t start = job.cursor.fetch_add(grain);
    if (start >= job.end) {
      break;
    }
    const std::size_t stop = std::min(job.end, start + grain);
    try {
      (*job.body)(start, stop);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (job.exception == nullptr) {
        job.exception = std::current_exception();
      }
      job.failed.store(true, std::memory_order_release);
    }
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  if (begin >= end) {
    return;
  }
  // Small ranges and nested calls: skip the synchronization entirely.
  if (end - begin <= grain || workers_.empty() || t_inside_pool_job) {
    fn(begin, end);
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  Job job;
  job.cursor.store(begin);
  job.end = end;
  job.grain = grain;
  job.body = &fn;
  job.remaining_workers.store(workers_.size());

  {
    std::lock_guard<std::mutex> lock(mutex_);
    current_job_ = &job;
    ++job_epoch_;
  }
  cv_.notify_all();

  // The calling thread participates too.
  run_job(job);

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return job.remaining_workers.load() == 0; });
  current_job_ = nullptr;
  if (job.exception != nullptr) {
    std::exception_ptr ex = job.exception;
    lock.unlock();
    std::rethrow_exception(ex);
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  parallel_for_chunks(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          fn(i);
        }
      },
      grain);
}

}  // namespace apss::util
