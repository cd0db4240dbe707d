#pragma once
// Bounded admission queue of the serving core (docs/ROBUSTNESS.md
// "Serving").
//
// The queue is the overload valve: push() REFUSES work the moment the
// depth cap is reached instead of growing, so a traffic spike turns into
// typed kOverloaded rejections at admission rather than unbounded memory
// and tail latency. Closing the queue (drain) refuses all further pushes
// but lets consumers empty what was admitted — nothing admitted is ever
// dropped by the queue itself.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "serve/request.hpp"

namespace apss::serve {

class RequestQueue {
 public:
  /// `max_depth` = most requests waiting at once (>= 1).
  explicit RequestQueue(std::size_t max_depth);

  enum class PushResult {
    kAdmitted,
    kFull,    ///< depth cap reached — shed with kOverloaded
    kClosed,  ///< draining — reject with kShuttingDown
  };

  PushResult push(RequestPtr request);

  /// Blocks until a request is available and pops it; returns null once
  /// the queue is closed AND empty (the consumer's exit signal).
  RequestPtr pop_blocking();

  /// Pops one request if available before `until`; null on timeout or on
  /// closed-and-empty. Never waits once the queue is closed — a draining
  /// server flushes partial batches immediately instead of sitting out the
  /// batch window.
  RequestPtr pop_until(std::chrono::steady_clock::time_point until);

  /// Removes and returns every queued request whose deadline has expired
  /// (the watchdog's queue-reaping pass — expired work must not wait for a
  /// batch slot just to be discarded).
  std::vector<RequestPtr> take_expired();

  /// Refuses further pushes and wakes all waiting consumers.
  void close();

  std::size_t depth() const;
  std::size_t high_water() const;

 private:
  const std::size_t max_depth_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<RequestPtr> queue_;
  std::size_t high_water_ = 0;
  bool closed_ = false;
};

}  // namespace apss::serve
