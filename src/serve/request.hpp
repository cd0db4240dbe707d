#pragma once
// Request/response types of the kNN serving core (docs/ROBUSTNESS.md
// "Serving").
//
// A request travels: submit() -> admission -> bounded queue -> batcher ->
// worker batch -> resolution. Resolution is EXACTLY-ONCE and can come from
// three places — the worker that ran the batch, the watchdog (per-request
// deadline reaping, wedged-batch failure), or admission itself (typed
// rejection before any work is enqueued) — so the terminal transition is a
// single atomic exchange on RequestState::resolved; whoever wins it sets
// the promise, every later attempt is a no-op.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <vector>

#include "knn/exact.hpp"
#include "util/bitvector.hpp"
#include "util/cancellation.hpp"

namespace apss::serve {

/// Terminal outcome of one request. Every submit() resolves with exactly
/// one of these; nothing is silently dropped.
enum class ResponseCode : std::uint8_t {
  kOk = 0,            ///< neighbors hold the exact top-k
  /// Shed at admission: the bounded queue or the in-flight cap was full.
  /// The typed alternative to unbounded queue growth — callers retry with
  /// backoff or route elsewhere.
  kOverloaded,
  kShuttingDown,      ///< rejected: the server is draining or stopped
  /// The request's deadline expired — at admission (fast path, before any
  /// simulator work), while queued, or while its batch was running.
  kDeadlineExceeded,
  /// An injected fault, an engine failure that survived degradation, or a
  /// wedged batch the watchdog failed.
  kInternal,
  kInvalidArgument,   ///< malformed query (dimensionality mismatch, empty)
};

const char* to_string(ResponseCode code) noexcept;

struct Response {
  ResponseCode code = ResponseCode::kInternal;
  /// Ascending-(distance, id) exact neighbors; empty unless kOk.
  std::vector<knn::Neighbor> neighbors;
  /// Admission -> batch-execution start (equals total_ms for requests that
  /// never reached a batch).
  double queue_ms = 0;
  /// Admission -> resolution.
  double total_ms = 0;
  /// Sequence number of the batch that served (or failed) this request;
  /// 0 when the request never joined a batch.
  std::uint64_t batch_seq = 0;
  /// Number of live requests coalesced into that batch.
  std::size_t batch_size = 0;

  bool ok() const noexcept { return code == ResponseCode::kOk; }
};

/// One in-flight request. Owned by a shared_ptr because the queue, the
/// executing worker, and the watchdog may all hold it concurrently.
struct RequestState {
  std::uint64_t id = 0;
  util::BitVector query;
  util::Deadline deadline;  ///< unset = unlimited budget
  std::chrono::steady_clock::time_point submitted_at{};
  /// Set when the request's batch starts executing (steady clock; epoch
  /// value means "never batched").
  std::chrono::steady_clock::time_point batch_started_at{};
  std::uint64_t batch_seq = 0;
  std::size_t batch_size = 0;
  /// True once the request passed admission (counts toward in-flight).
  bool admitted = false;
  /// Exactly-once resolution guard; see file comment.
  std::atomic<bool> resolved{false};
  std::promise<Response> promise;
};

using RequestPtr = std::shared_ptr<RequestState>;

}  // namespace apss::serve
