#include "serve/stats.hpp"

#include <ostream>

namespace apss::serve {

const char* to_string(ResponseCode code) noexcept {
  switch (code) {
    case ResponseCode::kOk:
      return "ok";
    case ResponseCode::kOverloaded:
      return "overloaded";
    case ResponseCode::kShuttingDown:
      return "shutting-down";
    case ResponseCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case ResponseCode::kInternal:
      return "internal";
    case ResponseCode::kInvalidArgument:
      return "invalid-argument";
  }
  return "unknown";
}

std::ostream& operator<<(std::ostream& os, const ServerStats& stats) {
  os << "serve: submitted " << stats.submitted << ", admitted "
     << stats.admitted << ", ok " << stats.ok << "\n"
     << "serve: shed " << stats.rejected_overload << " overloaded, "
     << stats.rejected_shutdown << " shutting-down, "
     << stats.rejected_invalid << " invalid\n"
     << "serve: deadline-exceeded " << stats.deadline_exceeded << " ("
     << stats.expired_at_admission << " at admission), internal "
     << stats.internal_errors << "\n"
     << "serve: batches " << stats.batches << " (mean occupancy "
     << stats.mean_batch_occupancy() << ", degraded "
     << stats.degraded_batches << ", watchdog " << stats.watchdog_fired
     << ")\n"
     << "serve: queue depth " << stats.queue_depth << " (high water "
     << stats.queue_high_water << "), inflight " << stats.inflight;
  return os;
}

StatsCollector::StatsCollector(std::size_t max_batch) {
  stats_.batch_occupancy.assign(max_batch, 0);
}

void StatsCollector::count_submitted() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.submitted;
}

void StatsCollector::count_admitted() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.admitted;
}

void StatsCollector::count_resolved(ResponseCode code,
                                    bool expired_at_admission) {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (code) {
    case ResponseCode::kOk:
      ++stats_.ok;
      break;
    case ResponseCode::kOverloaded:
      ++stats_.rejected_overload;
      break;
    case ResponseCode::kShuttingDown:
      ++stats_.rejected_shutdown;
      break;
    case ResponseCode::kDeadlineExceeded:
      ++stats_.deadline_exceeded;
      stats_.expired_at_admission += expired_at_admission;
      break;
    case ResponseCode::kInternal:
      ++stats_.internal_errors;
      break;
    case ResponseCode::kInvalidArgument:
      ++stats_.rejected_invalid;
      break;
  }
}

void StatsCollector::count_batch(std::size_t live_requests, bool degraded) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.batches;
  stats_.batched_requests += live_requests;
  stats_.degraded_batches += degraded;
  if (live_requests > 0 && live_requests <= stats_.batch_occupancy.size()) {
    ++stats_.batch_occupancy[live_requests - 1];
  }
}

void StatsCollector::count_watchdog_fired() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.watchdog_fired;
}

ServerStats StatsCollector::snapshot(std::size_t queue_depth,
                                     std::size_t queue_high_water,
                                     std::size_t inflight) const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats out = stats_;
  out.queue_depth = queue_depth;
  out.queue_high_water = queue_high_water;
  out.inflight = inflight;
  return out;
}

}  // namespace apss::serve
