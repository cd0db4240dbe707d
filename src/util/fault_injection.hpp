#pragma once
// Deterministic fault injection for the chaos tests (docs/ROBUSTNESS.md).
//
// Production code is instrumented with NAMED FAULT SITES — fixed points
// where a test can script a failure or a stall:
//
//   site                  where it fires
//   "artifact.read"       core::try_load_program, before each load attempt
//   "artifact.write"      core::store_program, before each save attempt
//   "engine.shard"        ApKnnEngine::search, at each shard attempt entry
//                         (every design, multiplexed included)
//   "sim.frame"           apsim::Simulator, at each query-frame boundary
//   "batch.frame"         apsim::BatchSimulator, at each query-frame boundary
//   "serve.admit"         serve::KnnServer::submit, at each admission attempt
//   "serve.batch"         serve::KnnServer batch execution entry, per batch
//
// A test arms a site with a Plan ("fail hits 3..4 of configuration 1",
// "stall every hit 10 ms") and the next matching check() throws
// InjectedFault (or sleeps). Hits are counted per site over KEY-MATCHING
// checks only, so a plan keyed to one configuration is deterministic at
// any thread count — which shard fails never depends on scheduling.
//
// Cost when unarmed: one relaxed atomic load per check. The registry is
// process-global, shared by every engine and server; tests must
// disarm_all() on teardown and must not run armed in parallel with
// unrelated tests in the same process (gtest runs serially within a
// binary, so this is free).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace apss::util {

/// The failure check() throws on an armed site. Derives from runtime_error
/// so un-policy-aware code treats it like any shard failure; chaos tests
/// catch it precisely.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Canonical site names (kept here so tests and production agree).
inline constexpr std::string_view kFaultArtifactRead = "artifact.read";
inline constexpr std::string_view kFaultArtifactWrite = "artifact.write";
inline constexpr std::string_view kFaultEngineShard = "engine.shard";
inline constexpr std::string_view kFaultSimFrame = "sim.frame";
inline constexpr std::string_view kFaultBatchFrame = "batch.frame";
inline constexpr std::string_view kFaultServeAdmit = "serve.admit";
inline constexpr std::string_view kFaultServeBatch = "serve.batch";

class FaultInjector {
 public:
  static constexpr std::int64_t kAnyKey = -1;

  /// What an armed site does. The trigger window is the hit range
  /// [fail_on_hit, fail_on_hit + fail_count) counted over key-matching
  /// checks (1-based); fail_on_hit == 0 means EVERY matching hit is in the
  /// window (stall-only plans use this with fail = false).
  struct Plan {
    std::int64_t match_key = kAnyKey;  ///< only checks with this key hit
    std::uint64_t fail_on_hit = 1;     ///< first triggering hit (1-based)
    std::uint64_t fail_count = ~std::uint64_t{0};  ///< window length
    bool fail = true;          ///< throw InjectedFault inside the window
    std::uint32_t stall_ms = 0;  ///< sleep this long inside the window
    std::string message;         ///< appended to the exception text
  };

  static FaultInjector& instance();

  /// True when any site is armed (the fast-path gate).
  static bool armed() noexcept {
    return instance().armed_.load(std::memory_order_relaxed);
  }

  /// The instrumentation point. Near-zero cost when nothing is armed.
  static void check(std::string_view site, std::int64_t key = kAnyKey) {
    if (!armed()) {
      return;
    }
    instance().check_slow(site, key);
  }

  /// Arms (or re-arms, resetting the hit counter) one site.
  void arm(std::string_view site, Plan plan);

  /// Disarms one site (keeps others armed).
  void disarm(std::string_view site);

  /// Disarms everything and clears all counters — test teardown.
  void disarm_all();

  /// Key-matching hits an armed site has seen since it was armed
  /// (0 for unarmed sites).
  std::uint64_t hits(std::string_view site) const;

 private:
  FaultInjector() = default;
  void check_slow(std::string_view site, std::int64_t key);

  struct Site {
    std::string name;
    Plan plan;
    std::uint64_t hits = 0;
  };

  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  std::vector<Site> sites_;
};

}  // namespace apss::util
