#pragma once
// Cooperative deadlines and cancellation for long-running searches.
//
// A serving fleet cannot run on fail-fast semantics: one slow or wedged
// shard must not hold a whole query hostage. The primitives here are
// deliberately cooperative — nothing is killed, no thread is interrupted.
// Work units (the engines' shards, the simulators' query frames) poll a
// RunControl at natural boundaries and unwind with a TYPED exception when
// the budget is gone, so every abandonment is visible, attributable, and
// containable by the caller's error policy (core::OnError).
//
// Granularity contract: checkpoints sit at query-frame boundaries (one
// frame = StreamSpec::cycles_per_query() symbols), so an expired deadline
// terminates a search within one frame of simulation work — never
// mid-frame, which would leave counters dirty and reports torn.

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace apss::util {

/// Thrown by RunControl::checkpoint when the deadline has passed. Engines
/// translate it into ShardState::kTimedOut (kRetry) or let it propagate to
/// the caller (kFailFast).
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by RunControl::checkpoint when cancellation was requested.
class OperationCancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One-way cancellation flag, safe to set from any thread (and from signal
/// handlers: the store is a lock-free atomic). Workers observe it at their
/// next checkpoint; there is no un-cancel.
class CancellationToken {
 public:
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_release);
  }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A steady-clock budget. Default-constructed deadlines are UNSET (never
/// expire); after_ms(x) expires x milliseconds after the call. Steady clock
/// only: a wall-clock jump must not time out a healthy search.
class Deadline {
 public:
  Deadline() = default;

  static Deadline after_ms(double ms) {
    Deadline d;
    d.set_ = true;
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(ms));
    return d;
  }

  bool set() const noexcept { return set_; }

  bool expired() const noexcept {
    if (!set_) {
      return false;
    }
#if defined(__linux__)
    // CLOCK_MONOTONIC_COARSE is steady_clock's CLOCK_MONOTONIC as of the
    // last timer tick: it never runs ahead of steady_clock, trails it by
    // about one tick, and reads in a few ns instead of tens. So while the
    // deadline is more than coarse_slack() past it, the deadline has not
    // passed and the precise clock is not read. Only the last few ticks of
    // a budget pay the precise read (plus the coarse one).
    const std::chrono::nanoseconds slack = coarse_slack();
    timespec coarse;
    if (slack.count() > 0 &&
        clock_gettime(CLOCK_MONOTONIC_COARSE, &coarse) == 0 &&
        std::chrono::steady_clock::time_point(
            std::chrono::seconds(coarse.tv_sec) +
            std::chrono::nanoseconds(coarse.tv_nsec)) +
                slack <
            at_) {
      return false;
    }
#endif
    return std::chrono::steady_clock::now() >= at_;
  }

  /// How far past the coarse clock a deadline must lie for expired() to
  /// skip the precise read, i.e. the budget left below which every call
  /// reads the precise clock: three ticks of the coarse clock (12 ms at
  /// HZ=250), three times its usual lag. Zero, which never skips, where the
  /// coarse clock is unavailable.
  static std::chrono::nanoseconds coarse_slack() noexcept {
#if defined(__linux__)
    static const std::chrono::nanoseconds slack = [] {
      timespec res;
      if (clock_getres(CLOCK_MONOTONIC_COARSE, &res) != 0) {
        return std::chrono::nanoseconds{0};
      }
      return std::chrono::nanoseconds(
          3 * (std::chrono::seconds(res.tv_sec) +
               std::chrono::nanoseconds(res.tv_nsec)));
    }();
    return slack;
#else
    return std::chrono::nanoseconds{0};
#endif
  }

  /// Milliseconds left (negative once expired); +infinity when unset.
  double remaining_ms() const noexcept {
    if (!set_) {
      return std::numeric_limits<double>::infinity();
    }
    return std::chrono::duration<double, std::milli>(
               at_ - std::chrono::steady_clock::now())
        .count();
  }

  /// The deadline that expires LAST — an unset operand wins (it never
  /// expires at all). This is the batching combinator: a shared query frame
  /// serving several requests stays useful until its last request's budget
  /// is gone, so the frame's budget is the latest of its members'.
  static Deadline latest(const Deadline& a, const Deadline& b) noexcept {
    if (!a.set_ || !b.set_) {
      return Deadline{};
    }
    return a.at_ >= b.at_ ? a : b;
  }

  /// The deadline that expires FIRST — a set operand wins over an unset
  /// one. Use to cap a caller-supplied budget with a policy ceiling.
  static Deadline earliest(const Deadline& a, const Deadline& b) noexcept {
    if (!a.set_) {
      return b;
    }
    if (!b.set_) {
      return a;
    }
    return a.at_ <= b.at_ ? a : b;
  }

 private:
  bool set_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// The checkpoint bundle a caller threads through simulation: an optional
/// deadline, an optional cancellation token, how often (in symbols) the
/// simulators should poll, and the fault-injection key identifying the
/// work unit (the configuration or frame index; see util/fault_injection.hpp).
struct RunControl {
  const Deadline* deadline = nullptr;
  const CancellationToken* cancel = nullptr;
  /// Symbols between in-run checkpoints — the engines pass one query frame
  /// (StreamSpec::cycles_per_query()); 0 checkpoints only between runs.
  std::uint64_t checkpoint_period = 0;
  /// FaultInjector key for the frame-step fault sites (-1 = any).
  std::int64_t fault_key = -1;

  /// True when checkpoints can have any effect — the simulators run their
  /// plain loop otherwise, so an idle RunControl costs one branch per run.
  bool engaged() const noexcept {
    return (deadline != nullptr && deadline->set()) || cancel != nullptr;
  }

  /// Throws OperationCancelled / DeadlineExceeded when the budget is gone.
  /// Cancellation is checked first: an explicit cancel is the stronger,
  /// cheaper signal and should win the attribution.
  void checkpoint() const {
    if (cancel != nullptr && cancel->cancelled()) {
      throw OperationCancelled("operation cancelled by token");
    }
    if (deadline != nullptr && deadline->expired()) {
      throw DeadlineExceeded("deadline exceeded");
    }
  }
};

}  // namespace apss::util
