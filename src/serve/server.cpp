#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "util/fault_injection.hpp"

namespace apss::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

/// Everything the watchdog needs to judge (and fail) one executing batch.
/// Shared between the owning worker and the watchdog: the worker publishes
/// it before touching the engine and retires it after resolution, so the
/// watchdog always sees either nothing or a fully formed ticket.
struct KnnServer::BatchTicket {
  Clock::time_point started;
  std::uint64_t seq = 0;
  util::CancellationToken cancel;
  /// Set by whichever side declares the batch wedged first.
  std::atomic<bool> wedged{false};
  std::vector<RequestPtr> requests;
};

struct KnnServer::Worker {
  std::thread thread;
  /// Current batch, shared with the watchdog (null while idle).
  std::mutex ticket_mutex;
  std::shared_ptr<BatchTicket> ticket;
};

KnnServer::KnnServer(knn::BinaryDataset dataset, ServerOptions options)
    : options_(std::move(options)),
      queue_(options_.max_queue_depth),
      batcher_(queue_, options_.max_batch, options_.batch_window_ms),
      stats_(options_.max_batch),
      workers_(options_.workers) {
  if (options_.k == 0) {
    throw std::invalid_argument("KnnServer: k must be >= 1");
  }
  if (options_.max_batch == 0 || options_.max_inflight == 0 ||
      options_.workers == 0) {
    throw std::invalid_argument(
        "KnnServer: max_batch, max_inflight and workers must be >= 1");
  }
  // The serving core owns the robustness knobs: per-request deadlines and
  // the watchdog replace the engine-level budget/token, and kRetry makes a
  // faulted shard degrade to the cycle-accurate reference (exact answers)
  // before the batch is failed.
  core::EngineOptions engine_options = options_.engine;
  engine_options.deadline_ms = 0;
  engine_options.cancel = nullptr;
  engine_options.on_error = core::OnError::kRetry;
  engine_options.collect_report_stream = false;
  engine_ = std::make_unique<const core::ApKnnEngine>(std::move(dataset),
                                                      engine_options);
  if (!options_.defer_start) {
    start();
  }
}

KnnServer::~KnnServer() { drain(); }

void KnnServer::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) {
    return;
  }
  for (Worker& worker : workers_) {
    worker.thread = std::thread([this, &worker] { worker_loop(worker); });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

std::future<Response> KnnServer::submit(util::BitVector query,
                                        double deadline_ms) {
  return submit(std::move(query), deadline_ms > 0
                                      ? util::Deadline::after_ms(deadline_ms)
                                      : util::Deadline{});
}

std::future<Response> KnnServer::submit(util::BitVector query,
                                        util::Deadline deadline) {
  auto request = std::make_shared<RequestState>();
  request->id = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  request->submitted_at = Clock::now();
  request->deadline = deadline;
  request->query = std::move(query);
  std::future<Response> future = request->promise.get_future();
  stats_.count_submitted();

  if (request->query.size() != dims()) {
    resolve(request, ResponseCode::kInvalidArgument);
    return future;
  }
  if (draining_.load(std::memory_order_acquire)) {
    resolve(request, ResponseCode::kShuttingDown);
    return future;
  }
  try {
    util::FaultInjector::check(util::kFaultServeAdmit,
                               static_cast<std::int64_t>(request->id));
  } catch (const util::InjectedFault&) {
    resolve(request, ResponseCode::kInternal);
    return future;
  }
  // Fast path for a budget that is already gone at submit time: resolve
  // kDeadlineExceeded here, BEFORE any simulator work is enqueued, instead
  // of burning a queue slot and a batch lane on a dead request.
  if (request->deadline.expired()) {
    resolve(request, ResponseCode::kDeadlineExceeded, {},
            /*expired_at_admission=*/true);
    return future;
  }
  if (inflight_.load(std::memory_order_acquire) >= options_.max_inflight) {
    resolve(request, ResponseCode::kOverloaded);
    return future;
  }
  // Count the request in flight before it becomes poppable — a worker may
  // pop and resolve (decrement) it the instant push() returns.
  request->admitted = true;
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  switch (queue_.push(request)) {
    case RequestQueue::PushResult::kAdmitted:
      stats_.count_admitted();
      break;
    case RequestQueue::PushResult::kFull:
      resolve(request, ResponseCode::kOverloaded);
      break;
    case RequestQueue::PushResult::kClosed:
      resolve(request, ResponseCode::kShuttingDown);
      break;
  }
  return future;
}

Response KnnServer::search(util::BitVector query, double deadline_ms) {
  return submit(std::move(query), deadline_ms).get();
}

ServerStats KnnServer::stats() const {
  return stats_.snapshot(queue_.depth(), queue_.high_water(),
                         inflight_.load(std::memory_order_acquire));
}

bool KnnServer::resolve(const RequestPtr& request, ResponseCode code,
                        std::vector<knn::Neighbor> neighbors,
                        bool expired_at_admission) {
  if (request->resolved.exchange(true, std::memory_order_acq_rel)) {
    return false;
  }
  const auto now = Clock::now();
  Response response;
  response.code = code;
  response.neighbors = std::move(neighbors);
  response.total_ms = ms_between(request->submitted_at, now);
  response.queue_ms =
      request->batch_started_at == Clock::time_point{}
          ? response.total_ms
          : ms_between(request->submitted_at, request->batch_started_at);
  response.batch_seq = request->batch_seq;
  response.batch_size = request->batch_size;
  stats_.count_resolved(code, expired_at_admission);
  if (request->admitted) {
    // Publish the decrement under the drain mutex so a drain() waiter
    // cannot check the predicate between our decrement and notify.
    {
      std::lock_guard<std::mutex> lock(drain_mutex_);
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
    }
    drain_cv_.notify_all();
  }
  request->promise.set_value(std::move(response));
  return true;
}

void KnnServer::worker_loop(Worker& worker) {
  for (;;) {
    std::vector<RequestPtr> batch = batcher_.next_batch();
    if (batch.empty()) {
      return;  // queue closed and drained
    }
    run_batch(worker, std::move(batch));
  }
}

void KnnServer::run_batch(Worker& worker, std::vector<RequestPtr> batch) {
  // Sweep requests whose budget expired while queued; survivors form the
  // live frame. (The watchdog also reaps the queue, so this mostly catches
  // expiries between the reap and the pop.)
  std::vector<RequestPtr> live;
  live.reserve(batch.size());
  for (RequestPtr& request : batch) {
    if (request->deadline.expired()) {
      resolve(request, ResponseCode::kDeadlineExceeded);
    } else if (!request->resolved.load(std::memory_order_acquire)) {
      live.push_back(std::move(request));
    }
  }
  if (live.empty()) {
    return;
  }

  auto ticket = std::make_shared<BatchTicket>();
  ticket->started = Clock::now();
  ticket->seq = next_batch_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  ticket->requests = live;
  for (const RequestPtr& request : live) {
    request->batch_started_at = ticket->started;
    request->batch_seq = ticket->seq;
    request->batch_size = live.size();
  }
  {
    std::lock_guard<std::mutex> lock(worker.ticket_mutex);
    worker.ticket = ticket;
  }
  // Whatever happens below, the ticket is retired before this frame
  // returns so the watchdog never judges a finished batch.
  struct TicketGuard {
    Worker& worker;
    ~TicketGuard() {
      std::lock_guard<std::mutex> lock(worker.ticket_mutex);
      worker.ticket = nullptr;
    }
  } ticket_guard{worker};

  // The frame's budget is the LATEST member deadline: the frame stays
  // useful until its last request's budget is gone. Earlier per-request
  // expiries are reaped by the watchdog while the frame runs.
  util::Deadline frame_deadline = live[0]->deadline;
  for (std::size_t i = 1; i < live.size(); ++i) {
    frame_deadline = util::Deadline::latest(frame_deadline, live[i]->deadline);
  }

  ResponseCode failure = ResponseCode::kInternal;
  core::SearchResult result;
  bool complete = false;
  bool degraded = false;
  try {
    util::FaultInjector::check(util::kFaultServeBatch,
                               static_cast<std::int64_t>(ticket->seq));
    knn::BinaryDataset queries(live.size(), dims());
    for (std::size_t i = 0; i < live.size(); ++i) {
      queries.set_vector(i, live[i]->query);
    }
    core::SearchControl control;
    control.deadline = &frame_deadline;
    control.cancel = &ticket->cancel;
    result = engine_->search(queries, options_.k, control);
    // kRetry never throws for shard failures — judge the statuses. A batch
    // is only kOk when EVERY configuration survived; anything less would
    // rank neighbors against a silently partial candidate set.
    const core::EngineStats& engine_stats = result.stats;
    if (engine_stats.surviving_configurations() ==
        engine_->configurations()) {
      complete = true;
      degraded =
          engine_stats.count_state(core::ShardState::kDegraded) > 0;
    } else if (engine_stats.count_state(core::ShardState::kTimedOut) > 0) {
      failure = ResponseCode::kDeadlineExceeded;
    } else {
      // kCancelled (watchdog fired) and kFailed both land here: the
      // watchdog already resolved the requests kInternal in the former
      // case, so our resolution attempts below are no-ops.
      failure = ResponseCode::kInternal;
    }
  } catch (const util::DeadlineExceeded&) {
    failure = ResponseCode::kDeadlineExceeded;
  } catch (const std::exception&) {
    failure = ResponseCode::kInternal;
  }

  stats_.count_batch(live.size(), degraded);
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (!complete) {
      resolve(live[i], failure);
    } else if (live[i]->deadline.expired()) {
      // The frame outlived this member's budget; its batch-mates still get
      // their bit-identical results below.
      resolve(live[i], ResponseCode::kDeadlineExceeded);
    } else {
      resolve(live[i], ResponseCode::kOk, std::move(result.neighbors[i]));
    }
  }
}

void KnnServer::watchdog_loop() {
  const auto poll = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(
          std::max(options_.watchdog_poll_ms, 0.1)));
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(poll);
    // Reap queued requests whose budget expired while waiting: they must
    // not occupy a batch lane just to be discarded.
    for (const RequestPtr& request : queue_.take_expired()) {
      resolve(request, ResponseCode::kDeadlineExceeded);
    }
    const auto now = Clock::now();
    for (Worker& worker : workers_) {
      std::shared_ptr<BatchTicket> ticket;
      {
        std::lock_guard<std::mutex> lock(worker.ticket_mutex);
        ticket = worker.ticket;
      }
      if (ticket == nullptr) {
        continue;
      }
      // Per-request deadline propagation at watchdog granularity: a member
      // whose budget expires mid-frame resolves NOW, not when the frame
      // ends — a slow shard cannot hold the whole batch hostage.
      for (const RequestPtr& request : ticket->requests) {
        if (request->deadline.expired()) {
          resolve(request, ResponseCode::kDeadlineExceeded);
        }
      }
      if (options_.watchdog_timeout_ms > 0 &&
          ms_between(ticket->started, now) > options_.watchdog_timeout_ms &&
          !ticket->wedged.exchange(true, std::memory_order_acq_rel)) {
        // Wedged: fail the batch's remaining requests and fire its token
        // so the worker unwinds at the next cooperative checkpoint. The
        // server stays up — the worker takes a fresh ticket (and token)
        // for its next batch.
        stats_.count_watchdog_fired();
        for (const RequestPtr& request : ticket->requests) {
          resolve(request, ResponseCode::kInternal);
        }
        ticket->cancel.request_cancel();
      }
    }
  }
}

void KnnServer::drain() {
  draining_.store(true, std::memory_order_release);
  queue_.close();
  if (!started_.load(std::memory_order_acquire)) {
    // Never started: resolve whatever was staged in the queue ourselves —
    // there are no workers to flush it through.
    for (;;) {
      RequestPtr request = queue_.pop_until(Clock::now());
      if (request == nullptr) {
        break;
      }
      resolve(request, request->deadline.expired()
                           ? ResponseCode::kDeadlineExceeded
                           : ResponseCode::kShuttingDown);
    }
  }
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [&] {
      return inflight_.load(std::memory_order_acquire) == 0;
    });
    if (joined_) {
      return;
    }
    joined_ = true;
  }
  for (Worker& worker : workers_) {
    if (worker.thread.joinable()) {
      worker.thread.join();
    }
  }
  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) {
    watchdog_.join();
  }
}

}  // namespace apss::serve
