// Engine-level backend equivalence: search() under EngineOptions::backend =
// kBitParallel must return the same neighbor lists AND the same EngineStats
// as the cycle-accurate default, across single/multi-configuration splits,
// thread pools, and chunk sizes — and must fall back gracefully when the
// device features put the configuration outside the fast path's subset.

#include <gtest/gtest.h>

#include "apsim/lane_word.hpp"
#include "apss_test_support.hpp"
#include "core/engine.hpp"
#include "util/fault_injection.hpp"

namespace apss::core {
namespace {

EngineOptions backend_options(SimulationBackend backend,
                              std::size_t vectors_per_config = 0) {
  EngineOptions opt;
  opt.backend = backend;
  opt.max_vectors_per_config = vectors_per_config;
  return opt;
}

void expect_same_search(const knn::BinaryDataset& data,
                        const knn::BinaryDataset& queries, std::size_t k,
                        EngineOptions cycle_opt, EngineOptions bit_opt,
                        const std::string& context) {
  cycle_opt.backend = SimulationBackend::kCycleAccurate;
  bit_opt.backend = SimulationBackend::kBitParallel;
  ApKnnEngine cycle(data, cycle_opt);
  ApKnnEngine bit(data, bit_opt);
  const auto expected = cycle.search(queries, k);
  const auto actual = bit.search(queries, k);
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t q = 0; q < expected.size(); ++q) {
    EXPECT_EQ(actual[q], expected[q]) << context << " query " << q;
  }
  EXPECT_TRUE(bit.last_stats().same_work(cycle.last_stats())) << context;
  test::expect_exact_knn_results(data, queries, k, actual, context);
}

TEST(EngineBackend, BitParallelCompilesEveryConfiguration) {
  const auto data = knn::BinaryDataset::uniform(37, 16, 301);
  ApKnnEngine engine(data,
                     backend_options(SimulationBackend::kBitParallel, 8));
  EXPECT_EQ(engine.configurations(), 5u);
  EXPECT_EQ(engine.bit_parallel_configurations(), 5u);

  // Per-family counters: every configuration is a plain Hamming board.
  const BackendCompileStats& bs = engine.backend_stats();
  EXPECT_EQ(bs.configurations, 5u);
  EXPECT_EQ(bs.bit_parallel, 5u);
  EXPECT_EQ(bs.fallback, 0u);
  EXPECT_EQ(bs.hamming, 5u);
  EXPECT_EQ(bs.packed, 0u);
  EXPECT_EQ(bs.multiplexed, 0u);
  EXPECT_TRUE(bs.fallback_reasons.empty());
  EXPECT_EQ(bs.match_count_isa, apsim::resolve_match_counts().isa);
  EXPECT_EQ(engine.project(3).backend, bs);

  ApKnnEngine reference(data,
                        backend_options(SimulationBackend::kCycleAccurate, 8));
  EXPECT_EQ(reference.bit_parallel_configurations(), 0u);
  EXPECT_EQ(reference.backend_stats().configurations, 5u);
  EXPECT_EQ(reference.backend_stats().bit_parallel, 0u);
  EXPECT_EQ(reference.backend_stats().fallback, 0u);  // never attempted
  EXPECT_TRUE(reference.backend_stats().match_count_isa.empty());
}

TEST(EngineBackend, SearchMatchesAcrossConfigurationSplits) {
  util::Rng rng(302);
  for (const std::size_t cap : {0u, 1u, 7u, 16u}) {
    const auto data = test::random_dataset(rng, 26, 24);
    const auto queries = test::random_dataset(rng, 6, 24);
    expect_same_search(data, queries, 5, backend_options({}, cap),
                       backend_options({}, cap),
                       "cap=" + std::to_string(cap));
  }
}

TEST(EngineBackend, SearchMatchesWithThreadPoolAndChunking) {
  const auto data = knn::BinaryDataset::uniform(30, 32, 303);
  const auto queries = knn::BinaryDataset::uniform(11, 32, 304);
  EngineOptions opt = backend_options({}, 9);
  opt.threads = 5;  // 4 pool workers plus the submitting thread
  opt.queries_per_chunk = 3;
  expect_same_search(data, queries, 4, opt, opt, "pooled");
}

TEST(EngineBackend, WideDimsUseDeeperCollectorTrees) {
  // 128-dim macros have a 1-level tree; shrink the fan-in caps to force a
  // deeper tree through the engine path as well.
  const auto data = knn::BinaryDataset::uniform(12, 96, 305);
  const auto queries = knn::BinaryDataset::uniform(4, 96, 306);
  EngineOptions opt = backend_options({}, 5);
  opt.macro.collector_fan_in = 4;
  opt.macro.max_counter_fan_in = 4;
  expect_same_search(data, queries, 3, opt, opt, "deep-tree");
}

TEST(EngineBackend, PackedConfigurationsCompileAndMatch) {
  // Vector-packed configurations (Sec. VI-A) take the fast path too: the
  // packed try_compile overload must accept every engine-built group and
  // search() must stay identical to the cycle-accurate reference.
  util::Rng rng(310);
  for (const auto style :
       {CollectorStyle::kFlat, CollectorStyle::kTree}) {
    const auto data = test::random_dataset(rng, 29, 24);
    const auto queries = test::random_dataset(rng, 6, 24);
    EngineOptions opt = backend_options({}, 10);
    opt.packing_group_size = 4;
    opt.packing_style = style;
    ApKnnEngine bit(data, [&] {
      EngineOptions o = opt;
      o.backend = SimulationBackend::kBitParallel;
      return o;
    }());
    EXPECT_EQ(bit.bit_parallel_configurations(), bit.configurations());
    EXPECT_EQ(bit.backend_stats().packed, bit.configurations());
    EXPECT_EQ(bit.backend_stats().hamming, 0u);
    expect_same_search(data, queries, 5, opt, opt,
                       style == CollectorStyle::kFlat ? "packed-flat"
                                                      : "packed-tree");
  }
}

/// A dataset of `n` rows cycling through `distinct` random vectors, so
/// distance ties straddle every k, inside one configuration and across
/// configurations alike.
knn::BinaryDataset repeating_dataset(util::Rng& rng, std::size_t n,
                                     std::size_t distinct, std::size_t dims) {
  const auto base = test::random_dataset(rng, distinct, dims);
  knn::BinaryDataset data(n, dims);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < dims; ++i) {
      data.set(v, i, base.get(v % distinct, i));
    }
  }
  return data;
}

struct CutRun {
  std::vector<std::vector<knn::Neighbor>> results;
  EngineStats stats;
};

CutRun run_cut(const knn::BinaryDataset& data,
               const knn::BinaryDataset& queries, std::size_t k,
               EngineOptions opt, bool collect_stream) {
  opt.collect_report_stream = collect_stream;
  ApKnnEngine engine(data, opt);
  CutRun r;
  r.results = engine.search(queries, k);
  r.stats = engine.last_stats();
  EXPECT_EQ(engine.last_report_stream().empty(), !collect_stream);
  return r;
}

TEST(EngineBackend, ReportCutKeepsAnswersAndStats) {
  // Without a collected stream, bit-parallel frames emit only each query's
  // k earliest reports (plus the rest of the k-th one's cycle). Answers and
  // EngineStats must equal the full-stream run's, and the exact oracle's,
  // with ties at k inside and across 8-vector configurations.
  util::Rng rng(312);
  const auto data = repeating_dataset(rng, 37, 5, 24);
  knn::BinaryDataset queries = test::random_dataset(rng, 7, 24);
  for (std::size_t i = 0; i < 24; ++i) {
    queries.set(0, i, data.get(3, i));  // distance 0 to ids 3, 8, 13, ...
  }
  for (const std::size_t packing : {0u, 4u}) {
    for (const std::size_t k : {1u, 10u, 8u, 40u}) {  // 8 = lanes per config
      for (const std::size_t threads : {1u, 4u}) {
        EngineOptions opt =
            backend_options(SimulationBackend::kBitParallel, 8);
        opt.packing_group_size = packing;
        opt.threads = threads;
        const std::string ctx = "packing=" + std::to_string(packing) +
                                " k=" + std::to_string(k) +
                                " threads=" + std::to_string(threads);
        const CutRun cut = run_cut(data, queries, k, opt, false);
        const CutRun whole = run_cut(data, queries, k, opt, true);
        EXPECT_EQ(cut.results, whole.results) << ctx;
        EXPECT_EQ(cut.stats, whole.stats) << ctx;
        EXPECT_EQ(cut.stats.report_events, queries.size() * data.size())
            << ctx;
        test::expect_exact_knn_results(data, queries, k, cut.results, ctx);
      }
    }
  }
}

TEST(EngineBackend, ReportCutWithDegradedShardDecodesFullStream) {
  // A persistent batch.frame fault on configuration 1 under kRetry: its
  // shards degrade to the cycle-accurate reference, whose full stream the
  // decoder cuts itself, while the other configurations cut in the kernel.
  util::Rng rng(313);
  const auto data = repeating_dataset(rng, 37, 5, 24);
  const auto queries = test::random_dataset(rng, 6, 24);
  auto& injector = util::FaultInjector::instance();
  for (const std::size_t threads : {1u, 4u}) {
    EngineOptions opt = backend_options(SimulationBackend::kBitParallel, 8);
    opt.threads = threads;
    opt.on_error = OnError::kRetry;
    std::vector<CutRun> runs;
    for (const bool collect : {false, true}) {
      util::FaultInjector::Plan plan;
      plan.match_key = 1;
      injector.arm(util::kFaultBatchFrame, plan);
      runs.push_back(run_cut(data, queries, 3, opt, collect));
      injector.disarm_all();
    }
    const std::string ctx = "threads=" + std::to_string(threads);
    EXPECT_EQ(runs[0].results, runs[1].results) << ctx;
    EXPECT_TRUE(runs[0].stats.same_work(runs[1].stats)) << ctx;
    ASSERT_EQ(runs[0].stats.shard_status.size(), 5u) << ctx;
    for (std::size_t c = 0; c < 5; ++c) {
      for (const CutRun& run : runs) {
        EXPECT_EQ(run.stats.shard_status[c].state,
                  c == 1 ? ShardState::kDegraded : ShardState::kOk)
            << ctx << " config " << c;
        EXPECT_EQ(run.stats.shard_status[c].retries,
                  runs[0].stats.shard_status[c].retries)
            << ctx << " config " << c;
      }
    }
    test::expect_exact_knn_results(data, queries, 3, runs[0].results, ctx);
  }
}

TEST(EngineBackend, BoardCapacityCutMatchesScan) {
  // Four full 1264-vector configurations at d = 128: at k = 100 each cut
  // frame visits about a hundred of its 158 blocks and lists more candidate
  // lanes than it keeps, and the merge joins four lists of k per query.
  // k = 157, 158 and 159 sit where the block floor turns off. Answers must
  // equal the scan's, and EngineStats a collected stream's.
  const auto data = knn::BinaryDataset::uniform(5056, 128, 314);
  const auto queries = knn::perturbed_queries(data, 64, 0.1, 315);
  for (const std::size_t threads : {1u, 2u}) {
    EngineOptions opt = backend_options(SimulationBackend::kBitParallel);
    opt.threads = threads;
    ApKnnEngine cut(data, opt);
    opt.collect_report_stream = true;
    ApKnnEngine whole(data, opt);
    ASSERT_EQ(cut.configurations(), 4u);
    for (const std::size_t k : {10u, 100u, 157u, 158u, 159u}) {
      const std::string ctx =
          "k=" + std::to_string(k) + " threads=" + std::to_string(threads);
      const auto results = cut.search(queries, k);
      EXPECT_EQ(whole.search(queries, k), results) << ctx;
      EXPECT_EQ(cut.last_stats(), whole.last_stats()) << ctx;
      EXPECT_TRUE(cut.last_report_stream().empty()) << ctx;
      test::expect_exact_knn_results(data, queries, k, results, ctx);
    }
  }
}

TEST(EngineBackend, PackedFallsBackWhenDeviceFeaturesUnsupported) {
  const auto data = knn::BinaryDataset::uniform(18, 16, 309);
  const auto queries = knn::BinaryDataset::uniform(5, 16, 311);
  EngineOptions opt = backend_options(SimulationBackend::kBitParallel, 6);
  opt.packing_group_size = 3;
  opt.device = apsim::DeviceConfig::opt_ext();
  ApKnnEngine engine(data, opt);
  EXPECT_EQ(engine.bit_parallel_configurations(), 0u);
  const auto results = engine.search(queries, 4);
  test::expect_exact_knn_results(data, queries, 4, results);
}

TEST(EngineBackend, FallsBackWhenDeviceFeaturesUnsupported) {
  // Opt+Ext raises the counter-increment cap to 8: outside the bit-parallel
  // subset, so every configuration must fall back yet still answer exactly.
  const auto data = knn::BinaryDataset::uniform(18, 16, 307);
  const auto queries = knn::BinaryDataset::uniform(5, 16, 308);
  EngineOptions opt = backend_options(SimulationBackend::kBitParallel, 6);
  opt.device = apsim::DeviceConfig::opt_ext();
  ApKnnEngine engine(data, opt);
  EXPECT_EQ(engine.bit_parallel_configurations(), 0u);
  const auto results = engine.search(queries, 4);
  test::expect_exact_knn_results(data, queries, 4, results);

  // No silent fallback: every declined configuration carries its reason,
  // aggregated per distinct reason, and search() embeds them in the stats.
  const BackendCompileStats& bs = engine.backend_stats();
  EXPECT_EQ(bs.configurations, 3u);
  EXPECT_EQ(bs.bit_parallel, 0u);
  EXPECT_EQ(bs.fallback, 3u);
  ASSERT_EQ(bs.fallback_reasons.size(), 1u);
  EXPECT_EQ(bs.fallback_reasons[0].second, 3u);
  EXPECT_NE(bs.fallback_reasons[0].first.find("max_counter_increment"),
            std::string::npos)
      << bs.fallback_reasons[0].first;
  EXPECT_EQ(engine.last_stats().backend, bs);
}

}  // namespace
}  // namespace apss::core
