// Configuration-shard scale-out differential tests: ApKnnEngine's base,
// packed and multiplexed designs must produce bit-identical neighbor lists,
// EngineStats, AND merged ReportEvent streams at every thread count — the
// merge walks shards in configuration/frame order, never completion order,
// so thread scheduling can never show through. The same holds when several
// threads search one shared engine at once. These run under TSan in CI
// (APSS_SANITIZE=thread) to also prove the sharding and the sharing are
// race-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "apss_test_support.hpp"
#include "core/engine.hpp"

namespace apss::core {
namespace {

struct SearchRun {
  std::vector<std::vector<knn::Neighbor>> results;
  std::vector<apsim::ReportEvent> stream;
  EngineStats stats;
  BackendCompileStats compile;
};

SearchRun run_engine(const knn::BinaryDataset& data,
               const knn::BinaryDataset& queries, std::size_t k,
               EngineOptions opt, std::size_t threads) {
  opt.threads = threads;
  opt.collect_report_stream = true;
  ApKnnEngine engine(data, opt);
  SearchRun r;
  r.results = engine.search(queries, k);
  r.stream = engine.last_report_stream();
  r.stats = engine.last_stats();
  r.compile = engine.backend_stats();
  return r;
}

void expect_thread_invariant(const knn::BinaryDataset& data,
                             const knn::BinaryDataset& queries, std::size_t k,
                             EngineOptions opt, const std::string& context) {
  const SearchRun reference = run_engine(data, queries, k, opt, 1);
  EXPECT_FALSE(reference.stream.empty()) << context;
  for (const std::size_t threads : {2, 8}) {
    const SearchRun run = run_engine(data, queries, k, opt, threads);
    const std::string ctx = context + " threads=" + std::to_string(threads);
    EXPECT_EQ(run.results, reference.results) << ctx;
    EXPECT_EQ(run.stream, reference.stream) << ctx;
    EXPECT_EQ(run.stats, reference.stats) << ctx;
    EXPECT_EQ(run.compile, reference.compile) << ctx;
  }
  // One engine, four concurrent searchers through the const overload:
  // every SearchResult must equal the serial reference.
  opt.collect_report_stream = true;
  for (const std::size_t threads : {1, 2}) {
    opt.threads = threads;
    const ApKnnEngine engine(data, opt);
    std::vector<SearchResult> results(4);
    std::vector<std::thread> searchers;
    for (SearchResult& result : results) {
      searchers.emplace_back(
          [&] { result = engine.search(queries, k, SearchControl{}); });
    }
    for (std::thread& searcher : searchers) {
      searcher.join();
    }
    const std::string ctx =
        context + " shared engine threads=" + std::to_string(threads);
    for (const SearchResult& result : results) {
      EXPECT_EQ(result.neighbors, reference.results) << ctx;
      EXPECT_EQ(result.events, reference.stream) << ctx;
      EXPECT_EQ(result.stats, reference.stats) << ctx;
    }
  }
  test::expect_exact_knn_results(data, queries, k, reference.results, context);
}

TEST(EngineThreads, BitParallelStreamIdenticalAcrossThreadCounts) {
  const auto data = knn::BinaryDataset::uniform(41, 24, 601);
  const auto queries = knn::BinaryDataset::uniform(9, 24, 602);
  EngineOptions opt;
  opt.backend = SimulationBackend::kBitParallel;
  opt.max_vectors_per_config = 7;  // 6 configurations
  opt.queries_per_chunk = 2;       // many (config, frame) shards
  expect_thread_invariant(data, queries, 4, opt, "bit-parallel");
}

TEST(EngineThreads, CycleAccurateStreamIdenticalAcrossThreadCounts) {
  const auto data = knn::BinaryDataset::uniform(23, 16, 603);
  const auto queries = knn::BinaryDataset::uniform(6, 16, 604);
  EngineOptions opt;
  opt.backend = SimulationBackend::kCycleAccurate;
  opt.max_vectors_per_config = 5;
  opt.queries_per_chunk = 2;
  expect_thread_invariant(data, queries, 3, opt, "cycle-accurate");
}

TEST(EngineThreads, PackedConfigurationsIdenticalAcrossThreadCounts) {
  const auto data = knn::BinaryDataset::uniform(26, 24, 605);
  const auto queries = knn::BinaryDataset::uniform(5, 24, 606);
  EngineOptions opt;
  opt.backend = SimulationBackend::kBitParallel;
  opt.packing_group_size = 4;
  opt.max_vectors_per_config = 9;
  opt.queries_per_chunk = 2;
  expect_thread_invariant(data, queries, 4, opt, "packed");
}

TEST(EngineThreads, FallbackStatsIdenticalAcrossThreadCounts) {
  // Opt+Ext pushes every configuration off the fast path: the per-shard
  // decline reasons must reduce to the same ordered fallback_reasons no
  // matter which worker compiled which configuration.
  const auto data = knn::BinaryDataset::uniform(18, 16, 607);
  const auto queries = knn::BinaryDataset::uniform(4, 16, 608);
  EngineOptions opt;
  opt.backend = SimulationBackend::kBitParallel;
  opt.device = apsim::DeviceConfig::opt_ext();
  opt.max_vectors_per_config = 4;  // 5 configurations, all declining
  const SearchRun reference = run_engine(data, queries, 3, opt, 1);
  ASSERT_EQ(reference.compile.fallback, 5u);
  ASSERT_EQ(reference.compile.fallback_reasons.size(), 1u);
  for (const std::size_t threads : {2, 8}) {
    const SearchRun run = run_engine(data, queries, 3, opt, threads);
    EXPECT_EQ(run.compile, reference.compile) << "threads=" << threads;
    EXPECT_EQ(run.results, reference.results) << "threads=" << threads;
  }
}

TEST(EngineThreads, SerialEngineReportsOneThread) {
  const auto data = knn::BinaryDataset::uniform(8, 16, 611);
  EngineOptions opt;
  opt.threads = 1;
  ApKnnEngine engine(data, opt);
  EXPECT_EQ(engine.simulation_threads(), 1u);
}

TEST(EngineThreads, DefaultThreadsMeanHardwareConcurrency) {
  // threads = 0 counts the submitting thread, as N >= 2 does: N threads in
  // total, not N pool workers plus the caller.
  const auto data = knn::BinaryDataset::uniform(8, 16, 611);
  ApKnnEngine engine(data, EngineOptions{});
  EXPECT_EQ(engine.simulation_threads(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

TEST(EngineThreads, MultiplexedSearchIdenticalAcrossThreadCounts) {
  const auto data = knn::BinaryDataset::uniform(31, 16, 612);
  const auto queries = knn::BinaryDataset::uniform(26, 16, 613);  // 4 frames
  for (const auto backend : {SimulationBackend::kCycleAccurate,
                             SimulationBackend::kBitParallel}) {
    EngineOptions opt;
    opt.backend = backend;
    opt.multiplex_slices = 7;
    opt.max_vectors_per_config = 9;  // 4 configurations
    opt.queries_per_chunk = 1;       // one frame per shard
    expect_thread_invariant(data, queries, 5, opt,
                            backend == SimulationBackend::kBitParallel
                                ? "multiplexed bit-parallel"
                                : "multiplexed cycle-accurate");
  }
}

}  // namespace
}  // namespace apss::core
