// Chaos suite (docs/ROBUSTNESS.md): drives every named fault site through
// every failure policy and differentially asserts the fault-isolation
// contract — surviving shards return results and merged ReportEvent
// streams BIT-IDENTICAL to an uninjected run, at 1 and 4 threads, for the
// base and the multiplexed design alike. Faults are keyed by configuration
// index, so which shard fails never depends on thread scheduling. Runs
// under TSan in CI (label: chaos).

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "apss_test_support.hpp"
#include "core/engine.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "knn/exact.hpp"
#include "util/cancellation.hpp"
#include "util/fault_injection.hpp"

namespace apss::core {
namespace {

/// Every test starts and ends with the process-global injector disarmed.
class Chaos : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::instance().disarm_all(); }
  void TearDown() override { util::FaultInjector::instance().disarm_all(); }
};
using ChaosEngine = Chaos;
using ChaosArtifact = Chaos;
using ChaosControl = Chaos;

struct SearchRun {
  std::vector<std::vector<knn::Neighbor>> results;
  std::vector<apsim::ReportEvent> stream;
  EngineStats stats;
};

/// A search of `data` under `opt` at `threads`. With `collect` (the
/// default) the run keeps its merged stream and never cuts a frame; without
/// it, bit-parallel frames are cut at k and at each query's running bound.
SearchRun run_engine(const knn::BinaryDataset& data,
               const knn::BinaryDataset& queries, std::size_t k,
               EngineOptions opt, std::size_t threads,
               const SearchControl& control = {}, bool collect = true) {
  opt.threads = threads;
  opt.collect_report_stream = collect;
  const ApKnnEngine engine(data, opt);
  SearchResult r = engine.search(queries, k, control);
  return {std::move(r.neighbors), std::move(r.events), std::move(r.stats)};
}

/// The 4-configuration test bed shared by the engine matrix: report codes
/// carry the GLOBAL vector id (directly, or as MuxReportCode when
/// multiplexed), so configuration c owns vectors [c * 7, (c + 1) * 7) and
/// dropping a configuration from the baseline stream is a pure filter.
constexpr std::size_t kCap = 7;
constexpr std::size_t kVectors = 26;  // 4 configurations (7+7+7+5)
constexpr std::size_t kConfigs = 4;
constexpr std::size_t kVictim = 1;  // the default injected configuration
constexpr std::size_t kSlices = 7;   // the multiplexed arm

EngineOptions bed_options(SimulationBackend backend,
                          std::size_t multiplex_slices = 0) {
  EngineOptions opt;
  opt.backend = backend;
  opt.max_vectors_per_config = kCap;
  // One frame per shard, so a configuration runs in several shards, and as
  // many at 4 threads as at 1: retry counts are per (shard, configuration)
  // pass, and the pool refines the frame chunk to 1 at 4 threads.
  opt.queries_per_chunk = 1;
  opt.multiplex_slices = multiplex_slices;
  return opt;
}

/// Queries for the bed: the multiplexed arm gets three frames (7 + 7 + 2),
/// so its configurations span three shards.
knn::BinaryDataset bed_queries(std::size_t multiplex_slices,
                               std::uint64_t seed) {
  return knn::BinaryDataset::uniform(multiplex_slices > 0 ? 16 : 6, 24, seed);
}

/// Baseline stream minus every event of configuration `config` — what a
/// fault-isolated run must emit when that configuration is lost.
std::vector<apsim::ReportEvent> without_config(
    const std::vector<apsim::ReportEvent>& stream, std::size_t config,
    std::size_t multiplex_slices) {
  std::vector<apsim::ReportEvent> out;
  for (const apsim::ReportEvent& e : stream) {
    const std::uint32_t id = multiplex_slices > 0
                                 ? MuxReportCode::vector_id(e.report_code)
                                 : e.report_code;
    if (id / kCap != config) {
      out.push_back(e);
    }
  }
  return out;
}

/// The exact answers over the configurations `stats` reports surviving:
/// knn_scan over their vectors, mapped back to global ids (the map keeps
/// id order, so (distance, id) order carries over).
void expect_exact_over_survivors(const knn::BinaryDataset& data,
                                 const knn::BinaryDataset& queries,
                                 std::size_t k, const SearchRun& run,
                                 const std::string& ctx) {
  ASSERT_EQ(run.stats.shard_status.size(), kConfigs) << ctx;
  std::vector<std::uint32_t> global;
  for (std::size_t v = 0; v < data.size(); ++v) {
    const ShardState s = run.stats.shard_status[v / kCap].state;
    if (s == ShardState::kOk || s == ShardState::kDegraded) {
      global.push_back(static_cast<std::uint32_t>(v));
    }
  }
  knn::BinaryDataset survivors(global.size(), data.dims());
  for (std::size_t row = 0; row < global.size(); ++row) {
    for (std::size_t i = 0; i < data.dims(); ++i) {
      survivors.set(row, i, data.get(global[row], i));
    }
  }
  ASSERT_EQ(run.results.size(), queries.size()) << ctx;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::vector<knn::Neighbor> want;
    if (!global.empty()) {
      want = knn::knn_scan(survivors, queries.row(q), k);
      for (knn::Neighbor& nb : want) {
        nb.id = global[nb.id];
      }
    }
    EXPECT_EQ(run.results[q], want) << ctx << " query " << q;
  }
}

void expect_states(const EngineStats& stats, std::size_t victim,
                   ShardState victim_state, const std::string& ctx) {
  ASSERT_EQ(stats.shard_status.size(), kConfigs) << ctx;
  for (std::size_t c = 0; c < kConfigs; ++c) {
    const ShardState want = c == victim ? victim_state : ShardState::kOk;
    EXPECT_EQ(stats.shard_status[c].state, want) << ctx << " config " << c;
  }
  EXPECT_FALSE(stats.shard_status[victim].error.empty()) << ctx;
}

/// The heart of the matrix: arm `site` (keyed to configuration `victim`,
/// persistent), search `opt` (a bed_options() variant) under kRetry with
/// `max_retries` at 1 and 4 threads, and check the survivors against the
/// uninjected baseline. Victim 0 makes the merge start from configuration
/// 1's lists; victim 3, the partial 5-vector configuration, drops the last
/// one.
///
/// With `collect` false the arm checks answers only: the injected searches
/// keep no stream, so their bit-parallel frames are cut at each query's
/// running bound, which may come only from surviving configurations.
void expect_isolation(const knn::BinaryDataset& data,
                      const knn::BinaryDataset& queries, EngineOptions opt,
                      std::string_view site, std::size_t max_retries,
                      ShardState victim_state, const std::string& ctx,
                      std::size_t victim = kVictim, bool collect = true) {
  const SearchRun baseline = run_engine(data, queries, 4, opt, 1);
  ASSERT_FALSE(baseline.stream.empty()) << ctx;

  opt.on_error = OnError::kRetry;
  opt.max_retries = max_retries;
  util::FaultInjector::Plan plan;
  plan.match_key = static_cast<std::int64_t>(victim);
  util::FaultInjector::instance().arm(site, plan);

  const bool survives = victim_state == ShardState::kOk ||
                        victim_state == ShardState::kDegraded;
  const auto want_stream =
      survives ? baseline.stream
               : without_config(baseline.stream, victim,
                                opt.multiplex_slices);
  SearchRun first;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::string tctx = ctx + " victim=" + std::to_string(victim) +
                             " threads=" + std::to_string(threads);
    const SearchRun run =
        run_engine(data, queries, 4, opt, threads, {}, collect);
    expect_states(run.stats, victim, victim_state, tctx);
    EXPECT_EQ(run.stream, collect ? want_stream
                                  : std::vector<apsim::ReportEvent>{})
        << tctx;
    if (survives) {
      EXPECT_EQ(run.results, baseline.results) << tctx;
    } else {
      // Losing a configuration backfills the top-k from the survivors'
      // partial lists (the baseline truncated those candidates away), so
      // the right expectation is the exact oracle over surviving vectors.
      expect_exact_over_survivors(data, queries, 4, run, tctx);
    }
    EXPECT_EQ(run.stats.surviving_configurations(),
              survives ? kConfigs : kConfigs - 1)
        << tctx;
    EXPECT_EQ(run.stats.simulated_cycles,
              baseline.stats.simulated_cycles / kConfigs *
                  run.stats.surviving_configurations())
        << tctx;
    if (threads == 1) {
      first = run;
    } else {
      // The injected run itself is thread-count invariant. (Error strings
      // embed the scheduling-dependent injector hit number, so compare the
      // deterministic fields only.)
      EXPECT_EQ(run.results, first.results) << tctx;
      EXPECT_EQ(run.stream, first.stream) << tctx;
      ASSERT_EQ(run.stats.shard_status.size(),
                first.stats.shard_status.size())
          << tctx;
      for (std::size_t c = 0; c < kConfigs; ++c) {
        EXPECT_EQ(run.stats.shard_status[c].state,
                  first.stats.shard_status[c].state)
            << tctx << " config " << c;
        EXPECT_EQ(run.stats.shard_status[c].retries,
                  first.stats.shard_status[c].retries)
            << tctx << " config " << c;
      }
    }
  }
  util::FaultInjector::instance().disarm_all();
}

TEST_F(ChaosEngine, ShardSiteIsolatesConfigCycleAccurate) {
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 701);
  for (const std::size_t slices : {std::size_t{0}, kSlices}) {
    expect_isolation(data, bed_queries(slices, 702),
                     bed_options(SimulationBackend::kCycleAccurate, slices),
                     util::kFaultEngineShard, 0, ShardState::kFailed,
                     "engine.shard/retry:0/cycle/s" + std::to_string(slices));
  }
}

TEST_F(ChaosEngine, ShardSiteIsolatesConfigEvenWithRetries) {
  // Persistent fault: every retry AND the degrade attempt re-enter the
  // shard site, so the configuration still ends kFailed under kRetry —
  // on both backends.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 703);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 704);
  expect_isolation(data, queries,
                   bed_options(SimulationBackend::kCycleAccurate),
                   util::kFaultEngineShard, 2, ShardState::kFailed,
                   "engine.shard/retry/cycle");
  // The bit-parallel arms also lose the first and the last configuration,
  // with no plain retries as with two.
  for (const std::size_t victim : {kVictim, std::size_t{0}, std::size_t{3}}) {
    expect_isolation(data, queries,
                     bed_options(SimulationBackend::kBitParallel),
                     util::kFaultEngineShard, 0, ShardState::kFailed,
                     "engine.shard/retry:0/bit", victim);
    expect_isolation(data, queries,
                     bed_options(SimulationBackend::kBitParallel),
                     util::kFaultEngineShard, 2, ShardState::kFailed,
                     "engine.shard/retry/bit", victim);
    expect_isolation(data, bed_queries(kSlices, 704),
                     bed_options(SimulationBackend::kBitParallel, kSlices),
                     util::kFaultEngineShard, 2, ShardState::kFailed,
                     "engine.shard/retry/bit/s7", victim);
  }
}

TEST_F(ChaosEngine, BoundedSearchIsolatesConfig) {
  // The answers-only arm: no collected stream, so every bit-parallel frame
  // after the first configuration is cut at its query's running bound. A
  // lost victim never sets a bound, and a degraded one sets it from the
  // reference's full lists.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 731);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 732);
  for (const std::size_t victim : {kVictim, std::size_t{0}, std::size_t{3}}) {
    expect_isolation(data, queries,
                     bed_options(SimulationBackend::kBitParallel),
                     util::kFaultEngineShard, 0, ShardState::kFailed,
                     "bounded/engine.shard/retry:0", victim,
                     /*collect=*/false);
    expect_isolation(data, queries,
                     bed_options(SimulationBackend::kBitParallel),
                     util::kFaultBatchFrame, 0, ShardState::kDegraded,
                     "bounded/batch.frame/retry:0", victim,
                     /*collect=*/false);
  }
}

TEST_F(ChaosEngine, VictimLostInOneFrameRangeOnly) {
  // Hits 2 and 3 of the victim's engine.shard site fail: at 1 thread that
  // is one frame range's attempt and its degrade attempt, so the victim is
  // lost there and merged in every other range, whose later configurations
  // were cut with a bound it helped set. Those ranges walk again over the
  // survivors (or, for the last victim, rebuild from the survivors' lists).
  // At 4 threads the window may land in two ranges and lose nothing; the
  // answers must equal the scan over whatever survived either way.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 733);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 734);
  EngineOptions opt = bed_options(SimulationBackend::kBitParallel);
  opt.on_error = OnError::kRetry;
  opt.max_retries = 0;
  for (const std::size_t victim : {kVictim, std::size_t{0}, std::size_t{3}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::string ctx = "victim=" + std::to_string(victim) +
                              " threads=" + std::to_string(threads);
      util::FaultInjector::Plan plan;
      plan.match_key = static_cast<std::int64_t>(victim);
      plan.fail_on_hit = 2;
      plan.fail_count = 2;
      util::FaultInjector::instance().arm(util::kFaultEngineShard, plan);
      const SearchRun run =
          run_engine(data, queries, 4, opt, threads, {}, /*collect=*/false);
      util::FaultInjector::instance().disarm_all();
      if (threads == 1) {
        expect_states(run.stats, victim, ShardState::kFailed, ctx);
        EXPECT_EQ(run.stats.shard_status[victim].retries, 1u) << ctx;
      }
      expect_exact_over_survivors(data, queries, 4, run, ctx);
    }
  }
}

TEST_F(ChaosEngine, SimFrameSiteIsolatesConfig) {
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 705);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 706);
  expect_isolation(data, queries,
                   bed_options(SimulationBackend::kCycleAccurate),
                   util::kFaultSimFrame, 0, ShardState::kFailed,
                   "sim.frame/retry:0/cycle");
  expect_isolation(data, queries,
                   bed_options(SimulationBackend::kCycleAccurate),
                   util::kFaultSimFrame, 2, ShardState::kFailed,
                   "sim.frame/retry/cycle");
}

TEST_F(ChaosEngine, BatchFrameFaultDegradesToCycleAccurate) {
  // The bit-parallel simulator keeps failing, the cycle-accurate rerun
  // succeeds: the configuration is DEGRADED, not lost — results and the
  // merged stream equal the full baseline bit for bit, with no plain
  // retries as with two.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 707);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 708);
  expect_isolation(data, queries, bed_options(SimulationBackend::kBitParallel),
                   util::kFaultBatchFrame, 0, ShardState::kDegraded,
                   "batch.frame/retry:0/bit");
  expect_isolation(data, queries, bed_options(SimulationBackend::kBitParallel),
                   util::kFaultBatchFrame, 2, ShardState::kDegraded,
                   "batch.frame/retry/bit");
  expect_isolation(data, bed_queries(kSlices, 708),
                   bed_options(SimulationBackend::kBitParallel, kSlices),
                   util::kFaultBatchFrame, 0, ShardState::kDegraded,
                   "batch.frame/retry:0/bit/s7");
}

TEST_F(ChaosEngine, RetryRecoversTransientFault) {
  // One-shot fault window: the first attempt on the victim configuration
  // fails, its retry succeeds — full baseline results, one extra attempt.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 709);
  for (const std::size_t slices : {std::size_t{0}, kSlices}) {
    const auto queries = bed_queries(slices, 710);
    EngineOptions opt = bed_options(SimulationBackend::kCycleAccurate, slices);
    const SearchRun baseline = run_engine(data, queries, 4, opt, 1);

    opt.on_error = OnError::kRetry;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::string ctx = "s" + std::to_string(slices) + " threads=" +
                              std::to_string(threads);
      util::FaultInjector::Plan plan;
      plan.match_key = kVictim;
      plan.fail_on_hit = 1;
      plan.fail_count = 1;
      util::FaultInjector::instance().arm(util::kFaultEngineShard, plan);
      const SearchRun run = run_engine(data, queries, 4, opt, threads);
      EXPECT_EQ(run.results, baseline.results) << ctx;
      EXPECT_EQ(run.stream, baseline.stream) << ctx;
      ASSERT_EQ(run.stats.shard_status.size(), kConfigs) << ctx;
      EXPECT_EQ(run.stats.shard_status[kVictim].state, ShardState::kOk) << ctx;
      EXPECT_EQ(run.stats.shard_status[kVictim].retries, 1u) << ctx;
      EXPECT_TRUE(run.stats.shard_status[kVictim].error.empty()) << ctx;
      util::FaultInjector::instance().disarm_all();
    }
  }
}

TEST_F(ChaosEngine, FailFastRethrowsInjectedFault) {
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 711);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 712);
  EngineOptions opt = bed_options(SimulationBackend::kCycleAccurate);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    opt.threads = threads;
    util::FaultInjector::Plan plan;
    plan.match_key = kVictim;
    util::FaultInjector::instance().arm(util::kFaultEngineShard, plan);
    ApKnnEngine engine(data, opt);
    EXPECT_THROW(engine.search(queries, 4), util::InjectedFault);
    util::FaultInjector::instance().disarm_all();
    // The engine stays usable after the aborted search.
    const auto results = engine.search(queries, 4);
    EXPECT_EQ(results.size(), queries.size());
  }
}

TEST_F(ChaosEngine, IsolatePolicyWithoutFaultsMatchesBaseline) {
  // The policy must be pure failure-path behavior: with nothing armed,
  // kRetry produces byte-identical results, streams, and stats with or
  // without plain retries.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 713);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 714);
  EngineOptions opt = bed_options(SimulationBackend::kBitParallel);
  const SearchRun baseline = run_engine(data, queries, 4, opt, 1);
  opt.on_error = OnError::kRetry;
  for (const std::size_t max_retries : {std::size_t{0}, std::size_t{2}}) {
    opt.max_retries = max_retries;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const SearchRun run = run_engine(data, queries, 4, opt, threads);
      EXPECT_EQ(run.results, baseline.results);
      EXPECT_EQ(run.stream, baseline.stream);
      EXPECT_TRUE(run.stats.same_work(baseline.stats));
      EXPECT_EQ(run.stats.surviving_configurations(), kConfigs);
      EXPECT_EQ(run.stats.count_state(ShardState::kOk), kConfigs);
    }
  }
}

TEST_F(ChaosControl, TinyDeadlineTimesOutOrThrows) {
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 715);
  for (const std::size_t slices : {std::size_t{0}, kSlices}) {
    const auto queries = bed_queries(slices, 716);
    EngineOptions opt = bed_options(SimulationBackend::kCycleAccurate, slices);
    opt.on_error = OnError::kRetry;
    opt.max_retries = 0;
    // Expires before the first frame completes.
    const util::Deadline tiny = util::Deadline::after_ms(1e-4);
    SearchControl control;
    control.deadline = &tiny;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::string ctx = "s" + std::to_string(slices) + " threads=" +
                              std::to_string(threads);
      const auto start = std::chrono::steady_clock::now();
      const SearchRun run =
          run_engine(data, queries, 4, opt, threads, control);
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      EXPECT_EQ(run.stats.count_state(ShardState::kTimedOut), kConfigs)
          << ctx;
      EXPECT_EQ(run.stats.surviving_configurations(), 0u) << ctx;
      EXPECT_EQ(run.stats.simulated_cycles, 0u) << ctx;
      EXPECT_TRUE(run.stream.empty()) << ctx;
      for (const auto& list : run.results) {
        EXPECT_TRUE(list.empty()) << ctx;
      }
      // Frame-granular enforcement: the whole search (construction aside)
      // winds down in far less than a second once the deadline is gone.
      EXPECT_LT(elapsed_ms, 5000.0) << ctx;
    }
    // ...and the default fail-fast policy throws instead.
    opt.on_error = OnError::kFailFast;
    opt.threads = 1;
    const ApKnnEngine engine(data, opt);
    EXPECT_THROW(engine.search(queries, 4, control), util::DeadlineExceeded)
        << "s" << slices;
  }
}

TEST_F(ChaosControl, DeadlineMidSearchDropsASuffix) {
  // Two one-query frame ranges. The second pass over configuration 2 stalls
  // past the deadline: that range's walk times out there, so 2 and 3 are
  // lost, and the range that had merged them rebuilds its answers from the
  // passes of 0 and 1, which no bound of 2 or 3 cut. At 4 threads the two
  // ranges run at once; a late start could lose more, so there the answers
  // are checked against whatever survived.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 727);
  const auto queries = knn::BinaryDataset::uniform(2, 24, 728);
  EngineOptions opt = bed_options(SimulationBackend::kBitParallel);
  opt.on_error = OnError::kRetry;
  opt.max_retries = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::string ctx = "threads=" + std::to_string(threads);
    opt.threads = threads;
    const ApKnnEngine engine(data, opt);
    util::FaultInjector::Plan plan;
    plan.match_key = 2;
    plan.fail = false;
    plan.fail_on_hit = 2;
    plan.fail_count = 1;
    plan.stall_ms = 400;
    util::FaultInjector::instance().arm(util::kFaultEngineShard, plan);
    const util::Deadline deadline = util::Deadline::after_ms(200);
    SearchControl control;
    control.deadline = &deadline;
    SearchResult r = engine.search(queries, 4, control);
    util::FaultInjector::instance().disarm_all();
    const SearchRun run{std::move(r.neighbors), std::move(r.events),
                        std::move(r.stats)};
    ASSERT_EQ(run.stats.shard_status.size(), kConfigs) << ctx;
    // Timed-out configurations form a suffix.
    bool lost = false;
    for (std::size_t c = 0; c < kConfigs; ++c) {
      const bool timed_out =
          run.stats.shard_status[c].state == ShardState::kTimedOut;
      EXPECT_TRUE(timed_out || (!lost && run.stats.shard_status[c].state ==
                                             ShardState::kOk))
          << ctx << " config " << c;
      lost = lost || timed_out;
    }
    if (threads == 1) {
      EXPECT_EQ(run.stats.surviving_configurations(), 2u) << ctx;
    }
    EXPECT_GE(run.stats.count_state(ShardState::kTimedOut), 2u) << ctx;
    EXPECT_EQ(run.stats.simulated_cycles,
              queries.size() * engine.stream_spec().cycles_per_query() *
                  run.stats.surviving_configurations())
        << ctx;
    expect_exact_over_survivors(data, queries, 4, run, ctx);
  }
}

TEST_F(ChaosControl, PreCancelledTokenCancelsEveryConfiguration) {
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 719);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 720);
  util::CancellationToken token;
  token.request_cancel();
  SearchControl control;
  control.cancel = &token;
  EngineOptions opt = bed_options(SimulationBackend::kCycleAccurate);

  opt.threads = 1;
  const ApKnnEngine fail_fast(data, opt);
  EXPECT_THROW(fail_fast.search(queries, 4, control),
               util::OperationCancelled);

  opt.on_error = OnError::kRetry;
  opt.max_retries = 0;
  const SearchRun run = run_engine(data, queries, 4, opt, 4, control);
  EXPECT_EQ(run.stats.count_state(ShardState::kCancelled), kConfigs);
  EXPECT_EQ(run.stats.surviving_configurations(), 0u);
}

TEST_F(ChaosControl, EngagedRunControlIsBitIdenticalToPlainRun) {
  // The checkpointed simulator paths must not perturb semantics: a huge
  // deadline (engaged, never fires) produces the exact baseline.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 721);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 722);
  for (const auto backend : {SimulationBackend::kCycleAccurate,
                             SimulationBackend::kBitParallel}) {
    EngineOptions opt = bed_options(backend);
    const SearchRun baseline = run_engine(data, queries, 4, opt, 1);
    const util::Deadline huge = util::Deadline::after_ms(1e9);
    SearchControl control;
    control.deadline = &huge;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const SearchRun run =
          run_engine(data, queries, 4, opt, threads, control);
      EXPECT_EQ(run.results, baseline.results);
      EXPECT_EQ(run.stream, baseline.stream);
      EXPECT_TRUE(run.stats.same_work(baseline.stats));
    }
  }
}

TEST_F(ChaosControl, PerCallBudgetsOnOneSharedEngine) {
  // Budgets belong to the call, not the engine: three threads search one
  // const engine at once — one past its deadline, one cancelled, one with
  // no budget — and none of them sees another's budget.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 725);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 726);
  util::CancellationToken token;
  token.request_cancel();
  for (const auto backend : {SimulationBackend::kCycleAccurate,
                             SimulationBackend::kBitParallel}) {
    EngineOptions opt = bed_options(backend);
    opt.on_error = OnError::kRetry;
    const SearchRun baseline = run_engine(data, queries, 4, opt, 1);
    opt.collect_report_stream = true;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::string ctx =
          std::string(backend == SimulationBackend::kBitParallel ? "bit"
                                                                 : "cycle") +
          " threads=" + std::to_string(threads);
      opt.threads = threads;
      const ApKnnEngine engine(data, opt);
      const util::Deadline expired = util::Deadline::after_ms(-1);
      SearchControl late_control;
      late_control.deadline = &expired;
      SearchControl cancelled_control;
      cancelled_control.cancel = &token;
      SearchResult late;
      SearchResult cancelled;
      SearchResult plain;
      std::thread late_search(
          [&] { late = engine.search(queries, 4, late_control); });
      std::thread cancelled_search(
          [&] { cancelled = engine.search(queries, 4, cancelled_control); });
      std::thread plain_search(
          [&] { plain = engine.search(queries, 4, SearchControl{}); });
      late_search.join();
      cancelled_search.join();
      plain_search.join();

      EXPECT_EQ(late.stats.count_state(ShardState::kTimedOut), kConfigs)
          << ctx;
      EXPECT_EQ(late.stats.simulated_cycles, 0u) << ctx;
      for (const auto& list : late.neighbors) {
        EXPECT_TRUE(list.empty()) << ctx;
      }
      EXPECT_EQ(cancelled.stats.count_state(ShardState::kCancelled), kConfigs)
          << ctx;
      EXPECT_EQ(plain.neighbors, baseline.results) << ctx;
      EXPECT_EQ(plain.events, baseline.stream) << ctx;
      EXPECT_EQ(plain.stats, baseline.stats) << ctx;
    }
  }
}

// ---------------------------------------------------------------------------
// Artifact cache: transient-I/O retry, quarantine, stale-tmp sweep.

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "apss_chaos_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

EngineOptions cached_options(const std::string& dir) {
  EngineOptions opt;
  opt.backend = SimulationBackend::kBitParallel;
  opt.threads = 1;
  opt.artifact_cache_dir = dir;
  return opt;
}

TEST_F(ChaosArtifact, TransientReadFaultIsRetriedThenSucceeds) {
  util::Rng rng(51);
  const auto data = test::random_dataset(rng, 14, 16);
  const std::string dir = fresh_dir("read_retry");
  {  // populate the cache
    ApKnnEngine warm(data, cached_options(dir));
    ASSERT_EQ(warm.backend_stats().artifact.misses, 1u);
  }
  // Two transient read failures, then success: the load retries through
  // them and still serves the HIT.
  util::FaultInjector::Plan plan;
  plan.fail_on_hit = 1;
  plan.fail_count = 2;
  util::FaultInjector::instance().arm(util::kFaultArtifactRead, plan);
  ApKnnEngine engine(data, cached_options(dir));
  util::FaultInjector::instance().disarm_all();
  const ArtifactCacheStats& st = engine.backend_stats().artifact;
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.io_retries, 2u);
  EXPECT_EQ(st.quarantined, 0u);
}

TEST_F(ChaosArtifact, PersistentReadFaultDegradesToRecompile) {
  util::Rng rng(52);
  const auto data = test::random_dataset(rng, 14, 16);
  const std::string dir = fresh_dir("read_fail");
  { ApKnnEngine warm(data, cached_options(dir)); }
  util::FaultInjector::Plan plan;  // every read fails
  util::FaultInjector::instance().arm(util::kFaultArtifactRead, plan);
  ApKnnEngine engine(data, cached_options(dir));
  util::FaultInjector::instance().disarm_all();
  const ArtifactCacheStats& st = engine.backend_stats().artifact;
  // The retry budget is exhausted, the slot counts as invalidated, and the
  // engine compiled fresh — the cache never fails construction.
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.invalidations, 1u);
  EXPECT_EQ(st.io_retries, 3u);
  EXPECT_EQ(st.quarantined, 0u);  // transient I/O is not corruption
  EXPECT_EQ(engine.bit_parallel_configurations(), 1u);
}

TEST_F(ChaosArtifact, PersistentWriteFaultIsBestEffort) {
  util::Rng rng(53);
  const auto data = test::random_dataset(rng, 14, 16);
  const std::string dir = fresh_dir("write_fail");
  util::FaultInjector::Plan plan;  // every write fails
  util::FaultInjector::instance().arm(util::kFaultArtifactWrite, plan);
  ApKnnEngine engine(data, cached_options(dir));
  util::FaultInjector::instance().disarm_all();
  const ArtifactCacheStats& st = engine.backend_stats().artifact;
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.io_retries, 3u);
  EXPECT_FALSE(std::filesystem::exists(engine.artifact_cache_file(0)));
  // Nothing was stored, but the engine works (compile-every-time).
  EXPECT_EQ(engine.bit_parallel_configurations(), 1u);
}

TEST_F(ChaosArtifact, CorruptSlotIsQuarantinedNotDeleted) {
  util::Rng rng(54);
  const auto data = test::random_dataset(rng, 14, 16);
  const std::string dir = fresh_dir("quarantine");
  std::string slot;
  {
    ApKnnEngine warm(data, cached_options(dir));
    slot = warm.artifact_cache_file(0);
  }
  {  // damage the bytes (bad magic from offset 0)
    std::ofstream out(slot, std::ios::binary | std::ios::trunc);
    out << "damaged beyond recognition";
  }
  ApKnnEngine engine(data, cached_options(dir));
  const ArtifactCacheStats& st = engine.backend_stats().artifact;
  EXPECT_EQ(st.invalidations, 1u);
  EXPECT_EQ(st.quarantined, 1u);
  // The damaged bytes moved aside for a post-mortem; the recompile
  // overwrote the slot, so the NEXT engine hits again.
  EXPECT_TRUE(std::filesystem::exists(slot + ".quarantined"));
  ApKnnEngine again(data, cached_options(dir));
  EXPECT_EQ(again.backend_stats().artifact.hits, 1u);
}

TEST_F(ChaosArtifact, StaleTmpFilesAreSweptOnOpen) {
  util::Rng rng(55);
  const auto data = test::random_dataset(rng, 14, 16);
  const std::string dir = fresh_dir("tmp_sweep");
  // A crash between write and rename leaks temp files; quarantined slots
  // must survive the sweep.
  const std::string stale1 = dir + "/apss-knn-engine.config0000.apss-art.tmp.7";
  const std::string stale2 = dir + "/apss-knn-engine.config0001.apss-art.tmp.2";
  const std::string keep = dir + "/old.apss-art.quarantined";
  for (const std::string& path : {stale1, stale2, keep}) {
    std::ofstream(path) << "leftover";
  }
  ApKnnEngine engine(data, cached_options(dir));
  EXPECT_EQ(engine.backend_stats().artifact.stale_tmp_swept, 2u);
  EXPECT_FALSE(std::filesystem::exists(stale1));
  EXPECT_FALSE(std::filesystem::exists(stale2));
  EXPECT_TRUE(std::filesystem::exists(keep));
}

// ---------------------------------------------------------------------------
// FaultInjector semantics the whole suite leans on.

TEST_F(ChaosControl, InjectorHitWindowAndKeyMatching) {
  auto& inj = util::FaultInjector::instance();
  EXPECT_FALSE(util::FaultInjector::armed());
  util::FaultInjector::check("nothing.armed");  // no-throw when unarmed

  util::FaultInjector::Plan plan;
  plan.fail_on_hit = 2;
  plan.fail_count = 2;
  plan.match_key = 7;
  inj.arm("site.a", plan);
  EXPECT_TRUE(util::FaultInjector::armed());
  util::FaultInjector::check("site.a", 3);      // wrong key: not even a hit
  util::FaultInjector::check("site.b", 7);      // wrong site
  util::FaultInjector::check("site.a", 7);      // hit 1: before the window
  EXPECT_THROW(util::FaultInjector::check("site.a", 7), util::InjectedFault);
  EXPECT_THROW(util::FaultInjector::check("site.a", 7), util::InjectedFault);
  util::FaultInjector::check("site.a", 7);      // hit 4: window exhausted
  EXPECT_EQ(inj.hits("site.a"), 4u);
  inj.disarm_all();
  EXPECT_FALSE(util::FaultInjector::armed());
}

TEST_F(ChaosControl, InjectorStallDelaysWithoutFailing) {
  auto& inj = util::FaultInjector::instance();
  util::FaultInjector::Plan plan;
  plan.fail = false;
  plan.fail_on_hit = 0;  // every hit
  plan.stall_ms = 30;
  inj.arm("site.slow", plan);
  const auto start = std::chrono::steady_clock::now();
  util::FaultInjector::check("site.slow");
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 25.0);
  inj.disarm_all();
}

}  // namespace
}  // namespace apss::core
