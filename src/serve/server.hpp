#pragma once
// serve::KnnServer — the embeddable, transport-agnostic always-on kNN
// serving core (ROADMAP item 2; docs/ROBUSTNESS.md "Serving").
//
// The headline property is staying up and PREDICTABLE under overload:
//
//   submit() ──admission──▶ bounded queue ──batcher──▶ worker batches
//      │                        │                          │
//      ├─ kShuttingDown         ├─ watchdog reaps           ├─ one resident
//      ├─ kInvalidArgument      │  expired requests         │  ApKnnEngine
//      ├─ kDeadlineExceeded     │                           │  shared by all
//      │  (fast path)           ▼                           ▼
//      └─ kOverloaded (shed) kDeadlineExceeded       kOk / typed failure
//
// - Admission control: max_queue_depth + max_inflight bound all buffered
//   work; excess load is shed with typed kOverloaded responses instead of
//   growing a queue without bound.
// - Dynamic batching: admitted queries coalesce into shared query frames
//   (flush on max_batch or batch_window_ms, whichever first) that every
//   worker runs through one const ApKnnEngine, compiled (or loaded from the
//   artifact cache) once at construction.
// - Per-request deadlines propagate into the engine's RunControl
//   checkpoints (batch budget = latest member deadline); requests whose
//   own deadline expires — at admission, queued, or mid-batch — resolve
//   kDeadlineExceeded while batch-mates still get bit-identical results.
// - Graceful drain: stop admitting, finish (or deadline-out) in-flight
//   work, resolve every request exactly once, join all threads.
// - Watchdog: detects a wedged worker batch by heartbeat age, fails its
//   requests with kInternal and fires the batch's cancellation token so
//   the worker unwinds at its next checkpoint instead of hanging drain.
//
// Every engine run uses OnError::kRetry, so shard faults degrade to the
// cycle-accurate reference (exact, bit-identical answers) before a batch
// is failed; a batch only resolves kOk when EVERY configuration survived,
// never with a silently partial candidate set.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "knn/dataset.hpp"
#include "serve/batcher.hpp"
#include "serve/request.hpp"
#include "serve/request_queue.hpp"
#include "serve/stats.hpp"

namespace apss::serve {

struct ServerOptions {
  /// Configuration of the server's one engine (backend, lane width,
  /// threads, artifact cache, packing ...). The server overrides the
  /// robustness fields: on_error is forced to kRetry (degrade, never
  /// silently lose answers), deadline_ms/cancel are replaced by the
  /// per-request machinery, and collect_report_stream is disabled. threads
  /// sizes that engine's pool, which every worker's batches share (1 = each
  /// batch runs serially on its worker; scale out via `workers`).
  core::EngineOptions engine;
  /// Neighbors returned per query (clamped to the dataset size).
  std::size_t k = 10;
  /// Most requests waiting in the admission queue before submit() sheds
  /// with kOverloaded.
  std::size_t max_queue_depth = 256;
  /// Most admitted-but-unresolved requests (queued + executing) before
  /// submit() sheds with kOverloaded.
  std::size_t max_inflight = 1024;
  /// Most queries coalesced into one query-frame batch.
  std::size_t max_batch = 32;
  /// How long a forming batch waits for more queries after its first
  /// (<= 0: no wait — batches are whatever is instantaneously queued).
  double batch_window_ms = 1.0;
  /// Batch-executor threads; each runs its batches on the shared engine.
  std::size_t workers = 1;
  /// Watchdog: a batch executing longer than this is declared wedged —
  /// its requests fail kInternal and its cancellation token fires. 0
  /// disables wedge detection (deadline reaping still runs).
  double watchdog_timeout_ms = 5000;
  /// Watchdog poll period (also bounds deadline-reaping latency).
  double watchdog_poll_ms = 1.0;
  /// Construct stopped; call start() to launch workers + watchdog. Lets
  /// tests stage deterministic queue states before anything executes.
  bool defer_start = false;
};

class KnnServer {
 public:
  /// Compiles `dataset` into one resident engine and (unless defer_start)
  /// launches the worker and watchdog threads.
  KnnServer(knn::BinaryDataset dataset, ServerOptions options = {});

  /// Drains: equivalent to drain().
  ~KnnServer();

  KnnServer(const KnnServer&) = delete;
  KnnServer& operator=(const KnnServer&) = delete;

  /// Launches workers + watchdog (no-op when already started).
  void start();

  /// Submits one query. Always returns a future that WILL resolve with
  /// exactly one Response — typed rejections (kOverloaded,
  /// kShuttingDown, kDeadlineExceeded at admission, kInvalidArgument)
  /// resolve immediately. `deadline_ms` <= 0 means unlimited budget.
  std::future<Response> submit(util::BitVector query, double deadline_ms = 0);

  /// submit() with a caller-built deadline (tests use this to stage
  /// already-expired budgets deterministically).
  std::future<Response> submit(util::BitVector query, util::Deadline deadline);

  /// Blocking convenience wrapper: submit + wait.
  Response search(util::BitVector query, double deadline_ms = 0);

  /// Graceful drain: admit nothing new, flush the queue through the
  /// batchers, resolve every in-flight request exactly once (finished,
  /// deadline-exceeded, or watchdog-failed), then join every thread.
  /// Idempotent; safe to call from any thread except a worker.
  void drain();

  /// True once drain() has begun (submissions resolve kShuttingDown).
  bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  /// Point-in-time health snapshot.
  ServerStats stats() const;

  std::size_t workers() const noexcept { return options_.workers; }
  std::size_t dims() const noexcept { return engine_->stream_spec().dims; }
  std::size_t k() const noexcept { return options_.k; }

 private:
  struct BatchTicket;
  struct Worker;

  void worker_loop(Worker& worker);
  void run_batch(Worker& worker, std::vector<RequestPtr> batch);
  void watchdog_loop();
  /// Resolves `request` exactly once (see request.hpp); returns true when
  /// this call won the resolution. Counting and the in-flight decrement
  /// happen only on the winning call.
  bool resolve(const RequestPtr& request, ResponseCode code,
               std::vector<knn::Neighbor> neighbors = {},
               bool expired_at_admission = false);

  ServerOptions options_;
  RequestQueue queue_;
  Batcher batcher_;
  StatsCollector stats_;
  std::unique_ptr<const core::ApKnnEngine> engine_;
  std::vector<Worker> workers_;  // sized once; never moved
  std::thread watchdog_;

  std::atomic<std::uint64_t> next_request_id_{0};
  std::atomic<std::uint64_t> next_batch_seq_{0};
  std::atomic<std::size_t> inflight_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> watchdog_stop_{false};

  /// Guards the drain wait (inflight_ -> 0) and serializes drain() itself.
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  bool joined_ = false;
};

}  // namespace apss::serve
