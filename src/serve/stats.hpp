#pragma once
// Serving-core health counters (docs/ROBUSTNESS.md "Serving").
//
// Every terminal ResponseCode maps to exactly one counter, so the leak
// invariant is checkable from a snapshot alone:
//
//   submitted == resolved_total()        (once every future is resolved)
//   admitted  == ok + deadline_exceeded_inflight + internal_errors_inflight
//
// apss_serve asserts the first identity on drain ("zero response leaks")
// and the soak smoke in CI runs that assertion under injected faults.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "serve/request.hpp"

namespace apss::serve {

/// Point-in-time health snapshot of a KnnServer.
struct ServerStats {
  // --- Admission --------------------------------------------------------
  std::uint64_t submitted = 0;          ///< submit() calls, accepted or not
  std::uint64_t admitted = 0;           ///< passed admission into the queue
  std::uint64_t rejected_overload = 0;  ///< typed kOverloaded sheds
  std::uint64_t rejected_shutdown = 0;  ///< kShuttingDown rejections
  std::uint64_t rejected_invalid = 0;   ///< kInvalidArgument rejections
  /// Deadline already expired at submit: resolved kDeadlineExceeded by the
  /// admission fast path, before any simulator work was enqueued. A subset
  /// of deadline_exceeded.
  std::uint64_t expired_at_admission = 0;

  // --- Resolution -------------------------------------------------------
  std::uint64_t ok = 0;                 ///< kOk responses
  std::uint64_t deadline_exceeded = 0;  ///< kDeadlineExceeded (all paths)
  std::uint64_t internal_errors = 0;    ///< kInternal responses

  // --- Batching ---------------------------------------------------------
  std::uint64_t batches = 0;            ///< executed query-frame batches
  std::uint64_t batched_requests = 0;   ///< live requests across batches
  /// Batches whose engine run degraded at least one configuration to the
  /// cycle-accurate reference (answers exact, just slower).
  std::uint64_t degraded_batches = 0;
  /// Wedged batches the watchdog failed (their requests went kInternal).
  std::uint64_t watchdog_fired = 0;
  /// batch_occupancy[i] = number of executed batches with i+1 live
  /// requests; the vector is sized to ServerOptions::max_batch.
  std::vector<std::uint64_t> batch_occupancy;

  // --- Instantaneous ----------------------------------------------------
  std::size_t queue_depth = 0;       ///< waiting requests at snapshot time
  std::size_t queue_high_water = 0;  ///< max depth ever observed
  std::size_t inflight = 0;          ///< admitted, not yet resolved

  /// Requests that have reached a terminal state.
  std::uint64_t resolved_total() const noexcept {
    return ok + rejected_overload + rejected_shutdown + rejected_invalid +
           deadline_exceeded + internal_errors;
  }
  /// True when every submitted request is resolved and nothing is in
  /// flight — the drain postcondition.
  bool accounted() const noexcept {
    return submitted == resolved_total() && inflight == 0;
  }
  /// Mean live requests per executed batch (0 when no batch ran).
  double mean_batch_occupancy() const noexcept {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_requests) /
                              static_cast<double>(batches);
  }
};

/// Human-readable multi-line summary (printed by `apss_serve
/// --status-every` and on drain).
std::ostream& operator<<(std::ostream& os, const ServerStats& stats);

/// Thread-safe accumulator behind KnnServer::stats(). One mutex for
/// everything: admission and resolution each take it once per request,
/// which is noise next to a simulated query frame.
class StatsCollector {
 public:
  explicit StatsCollector(std::size_t max_batch);

  void count_submitted();
  void count_admitted();
  /// Counts one terminal response. `expired_at_admission` marks the
  /// admission fast-path flavor of kDeadlineExceeded.
  void count_resolved(ResponseCode code, bool expired_at_admission);
  void count_batch(std::size_t live_requests, bool degraded);
  void count_watchdog_fired();

  /// Snapshot with the caller-supplied instantaneous gauges folded in.
  ServerStats snapshot(std::size_t queue_depth, std::size_t queue_high_water,
                       std::size_t inflight) const;

 private:
  mutable std::mutex mutex_;
  ServerStats stats_;
};

}  // namespace apss::serve
