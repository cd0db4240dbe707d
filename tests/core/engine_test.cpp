#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "anml/anml_io.hpp"
#include "apss_test_support.hpp"
#include "util/rng.hpp"

namespace apss::core {
namespace {

EngineOptions small_engine_options(std::size_t vectors_per_config = 0) {
  EngineOptions opt;
  opt.max_vectors_per_config = vectors_per_config;
  return opt;
}

TEST(ApKnnEngine, RejectsEmptyDataset) {
  EXPECT_THROW(ApKnnEngine(knn::BinaryDataset(), {}), std::invalid_argument);
}

TEST(ApKnnEngine, SingleConfigurationMatchesCpuExact) {
  const auto data = knn::BinaryDataset::uniform(40, 24, 101);
  const auto queries = knn::BinaryDataset::uniform(8, 24, 102);
  ApKnnEngine engine(data, small_engine_options());
  EXPECT_EQ(engine.configurations(), 1u);
  const auto results = engine.search(queries, 5);
  test::expect_exact_knn_results(data, queries, 5, results);
}

TEST(ApKnnEngine, MultiConfigurationPartialReconfiguration) {
  const auto data = knn::BinaryDataset::uniform(37, 16, 103);
  const auto queries = knn::BinaryDataset::uniform(6, 16, 104);
  // Force 8 vectors per board image -> ceil(37/8) = 5 configurations.
  ApKnnEngine engine(data, small_engine_options(8));
  EXPECT_EQ(engine.configurations(), 5u);
  const auto results = engine.search(queries, 4);
  test::expect_exact_knn_results(data, queries, 4, results);
  const EngineStats& stats = engine.last_stats();
  EXPECT_EQ(stats.configurations, 5u);
  EXPECT_EQ(stats.queries, 6u);
  EXPECT_EQ(stats.cycles_per_query, (StreamSpec{16, 1}.cycles_per_query()));
  EXPECT_EQ(stats.simulated_cycles, 5u * 6u * stats.cycles_per_query);
  // Every vector reports once per query per configuration pass.
  EXPECT_EQ(stats.report_events, 6u * 37u);
}

TEST(ApKnnEngine, ParallelPoolAgreesWithSerial) {
  const auto data = knn::BinaryDataset::uniform(30, 32, 105);
  const auto queries = knn::BinaryDataset::uniform(12, 32, 106);
  ApKnnEngine serial(data, small_engine_options(16));
  EngineOptions par_opt = small_engine_options(16);
  par_opt.threads = 5;  // 4 pool workers plus the submitting thread
  par_opt.queries_per_chunk = 3;
  ApKnnEngine parallel(data, par_opt);
  const auto a = serial.search(queries, 7);
  const auto b = parallel.search(queries, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    EXPECT_EQ(a[q], b[q]) << "query " << q;
  }
}

TEST(ApKnnEngine, ClusteredDataProperty) {
  util::Rng rng(200);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 16 + rng.below(48);
    const std::size_t d = 8 + rng.below(40);
    const std::size_t k = 1 + rng.below(8);
    const auto data =
        knn::BinaryDataset::clustered(n, d, 3, 0.05, rng.next());
    const auto queries = knn::perturbed_queries(data, 4, 0.1, rng.next());
    ApKnnEngine engine(data, small_engine_options(1 + rng.below(n)));
    const auto results = engine.search(queries, k);
    test::expect_exact_knn_results(data, queries, k, results,
                                   "trial " + std::to_string(trial));
  }
}

TEST(ApKnnEngine, KLargerThanDatasetReturnsAll) {
  const auto data = knn::BinaryDataset::uniform(5, 16, 107);
  const auto queries = knn::BinaryDataset::uniform(2, 16, 108);
  ApKnnEngine engine(data, small_engine_options());
  const auto results = engine.search(queries, 50);
  for (const auto& r : results) {
    EXPECT_EQ(r.size(), 5u);
  }
  test::expect_exact_knn_results(data, queries, 50, results);
}

TEST(ApKnnEngine, RejectsBadQueries) {
  const auto data = knn::BinaryDataset::uniform(8, 16, 109);
  ApKnnEngine engine(data, small_engine_options());
  EXPECT_THROW(engine.search(knn::BinaryDataset::uniform(2, 8, 1), 3),
               std::invalid_argument);
  EXPECT_THROW(engine.search(knn::BinaryDataset::uniform(2, 16, 1), 0),
               std::invalid_argument);
}

TEST(ApKnnEngine, CapacityFollowsPlacementModel) {
  // 128-dim macros on a one-rank board: the paper's ~1024-vector capacity.
  const auto data = knn::BinaryDataset::uniform(4, 128, 110);
  ApKnnEngine engine(data, small_engine_options());
  EXPECT_GE(engine.capacity_per_config(), 1024u);
  EXPECT_LE(engine.capacity_per_config(), 1400u);
}

TEST(ApKnnEngine, ProjectionMatchesPaperLargeDatasetMath) {
  // SIFT large (Table IV): 2^20 vectors, 1024/config -> 1024 configs;
  // Gen 2: 1024 reconfigs x 0.45 ms + compute. With the paper's d-cycle
  // throughput assumption the compute is 4.02 s; with our honest 2d+4-cycle
  // frame it is ~8.2 s. Check OUR model's internal consistency here.
  const auto data = knn::BinaryDataset::uniform(4, 128, 111);
  EngineOptions opt;
  opt.device = apsim::DeviceConfig::gen2();
  opt.max_vectors_per_config = 1024;
  ApKnnEngine engine(data, opt);
  EngineStats stats = engine.project(4096);
  stats.configurations = 1024;  // pretend the full 2^20 dataset
  stats.simulated_cycles =
      stats.queries * stats.cycles_per_query * stats.configurations;
  const double compute = stats.compute_seconds(opt.device.timing);
  const double reconfig = stats.reconfig_seconds(opt.device.timing);
  const double cycle = 1.0 / 133e6;  // the paper rounds this to 7.5 ns
  EXPECT_NEAR(compute, 4096.0 * 260.0 * cycle * 1024.0, 1e-6);
  EXPECT_NEAR(reconfig, 1024 * 0.45e-3, 1e-9);
}

TEST(ApKnnEngine, ReportBandwidthModelMatchesPaperFormula) {
  // Sec. VI-C: 32*(n+d) bits per query. For n=1024, d=128 @133 MHz the
  // paper (using 2d cycles) gets 18.1 Gbps; our frame is 2d+4 cycles.
  const auto data = knn::BinaryDataset::uniform(4, 128, 112);
  EngineOptions opt;
  opt.max_vectors_per_config = 1024;
  ApKnnEngine engine(data, opt);
  const double gbps = engine.report_bandwidth_gbps();
  const double expected = 32.0 * (1024 + 128) / (260.0 / 133e6) / 1e9;
  EXPECT_NEAR(gbps, expected, 1e-9);
  EXPECT_NEAR(gbps, 18.9, 0.2);  // paper: 18.1 with the 2d-cycle frame
}

TEST(ApKnnEngine, NetworksExportToAnml) {
  const auto data = knn::BinaryDataset::uniform(6, 8, 113);
  ApKnnEngine engine(data, small_engine_options(4));
  ASSERT_EQ(engine.configurations(), 2u);
  const std::string xml = anml::to_anml(engine.network(0));
  const anml::AutomataNetwork back = anml::from_anml(xml);
  EXPECT_EQ(back.size(), engine.network(0).size());
  EXPECT_TRUE(back.validate().empty());
}

}  // namespace
}  // namespace apss::core
