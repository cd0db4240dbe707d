// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// every end-to-end path — base engine, packed ladder, multiplexed slices,
// counter-increment extension, interleaved frames — must return exact kNN
// answers across a grid of dimensionalities, dataset sizes, k values, and
// board-capacity splits.

#include <gtest/gtest.h>

#include <tuple>

#include "apss_test_support.hpp"
#include "core/engine.hpp"
#include "core/ext/counter_increment.hpp"
#include "core/opt/interleaved.hpp"
#include "core/opt/vector_packing.hpp"
#include "core/stream.hpp"
#include "core/temporal_decode.hpp"
#include "knn/exact.hpp"

namespace apss::core {
namespace {

struct SweepParam {
  std::size_t n;
  std::size_t dims;
  std::size_t k;
  std::size_t vectors_per_config;  // 0 = single configuration

  friend std::ostream& operator<<(std::ostream& os, const SweepParam& p) {
    return os << "n" << p.n << "_d" << p.dims << "_k" << p.k << "_cap"
              << p.vectors_per_config;
  }
};

class EngineSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EngineSweep, ApEngineReturnsExactKnn) {
  const SweepParam p = GetParam();
  const auto data = knn::BinaryDataset::uniform(p.n, p.dims, 7000 + p.n);
  const auto queries = knn::BinaryDataset::uniform(5, p.dims, 7100 + p.dims);
  EngineOptions opt;
  opt.max_vectors_per_config = p.vectors_per_config;
  ApKnnEngine engine(data, opt);
  const auto results = engine.search(queries, p.k);
  test::expect_exact_knn_results(data, queries, p.k, results);
}

TEST_P(EngineSweep, BitParallelBackendAgreesWithCycleAccurate) {
  const SweepParam p = GetParam();
  const auto data = knn::BinaryDataset::uniform(p.n, p.dims, 7600 + p.n);
  const auto queries = knn::BinaryDataset::uniform(5, p.dims, 7700 + p.dims);
  EngineOptions cycle_opt;
  cycle_opt.max_vectors_per_config = p.vectors_per_config;
  EngineOptions bit_opt = cycle_opt;
  bit_opt.backend = SimulationBackend::kBitParallel;
  ApKnnEngine cycle(data, cycle_opt);
  ApKnnEngine bit(data, bit_opt);
  ASSERT_EQ(bit.bit_parallel_configurations(), bit.configurations());
  const auto expected = cycle.search(queries, p.k);
  const auto actual = bit.search(queries, p.k);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t q = 0; q < expected.size(); ++q) {
    EXPECT_EQ(actual[q], expected[q]) << "query " << q;
  }
  EXPECT_TRUE(bit.last_stats().same_work(cycle.last_stats()));
}

TEST_P(EngineSweep, InterleavedDesignAgrees) {
  const SweepParam p = GetParam();
  if (p.dims < 2) {
    GTEST_SKIP();
  }
  const auto data = knn::BinaryDataset::uniform(p.n, p.dims, 7200 + p.n);
  const auto queries = knn::BinaryDataset::uniform(4, p.dims, 7300 + p.dims);
  const auto results = interleaved_knn_search(data, queries, p.k);
  test::expect_exact_knn_results(data, queries, p.k, results);
}

TEST_P(EngineSweep, CounterIncrementDesignAgrees) {
  const SweepParam p = GetParam();
  const auto data = knn::BinaryDataset::uniform(p.n, p.dims, 7400 + p.n);
  const auto queries = knn::BinaryDataset::uniform(4, p.dims, 7500 + p.dims);
  const auto results = ci_knn_search(data, queries, p.k);
  test::expect_exact_knn_results(data, queries, p.k, results);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineSweep,
    ::testing::Values(
        SweepParam{1, 4, 1, 0}, SweepParam{3, 7, 2, 0},
        SweepParam{16, 8, 3, 5}, SweepParam{25, 16, 4, 0},
        SweepParam{40, 24, 8, 12}, SweepParam{33, 33, 5, 9},
        SweepParam{48, 64, 6, 0}, SweepParam{20, 65, 20, 7},
        SweepParam{12, 128, 2, 4}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::ostringstream oss;
      oss << info.param;
      return oss.str();
    });

// --- Packing equivalence across group sizes ----------------------------------

class PackingSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, CollectorStyle>> {
};

TEST_P(PackingSweep, PackedReportsEqualUnpackedReports) {
  const auto [group_size, style] = GetParam();
  const std::size_t dims = 20;
  const auto data = knn::BinaryDataset::uniform(11, dims, 8000 + group_size);
  const auto queries = knn::BinaryDataset::uniform(3, dims, 8100);

  anml::AutomataNetwork unpacked;
  for (std::size_t i = 0; i < data.size(); ++i) {
    append_hamming_macro(unpacked, data.vector(i),
                         static_cast<std::uint32_t>(i));
  }
  anml::AutomataNetwork packed;
  VectorPackingOptions opt;
  opt.group_size = group_size;
  opt.style = style;
  build_packed_network(packed, data, opt);

  const StreamSpec spec{dims, 1};
  apsim::Simulator su(unpacked);
  apsim::Simulator sp(packed);
  const SymbolStreamEncoder enc(spec);
  const auto eu = su.run(enc.encode_batch(queries));
  const auto ep = sp.run(enc.encode_batch(queries));
  const TemporalSortDecoder decoder(spec, queries.size());
  EXPECT_EQ(decoder.decode(eu), decoder.decode(ep));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PackingSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 8u, 11u),
                       ::testing::Values(CollectorStyle::kFlat,
                                         CollectorStyle::kTree)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, CollectorStyle>>&
           info) {
      return "g" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == CollectorStyle::kFlat ? "_flat"
                                                               : "_tree");
    });

class PackedEngineSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackedEngineSweep, BitParallelBackendAgreesOnPackedEngines) {
  // The same group sizes end to end through the engine, whose packed
  // design builds kTree collectors: packed configurations on the
  // bit-parallel backend must reproduce the cycle-accurate neighbor lists
  // and stats.
  const std::size_t group_size = GetParam();
  const std::size_t dims = 20;
  const auto data = knn::BinaryDataset::uniform(11, dims, 8400 + group_size);
  const auto queries = knn::BinaryDataset::uniform(3, dims, 8500);
  EngineOptions cycle_opt;
  cycle_opt.packing_group_size = group_size;
  cycle_opt.max_vectors_per_config = 6;
  EngineOptions bit_opt = cycle_opt;
  bit_opt.backend = SimulationBackend::kBitParallel;
  ApKnnEngine cycle(data, cycle_opt);
  ApKnnEngine bit(data, bit_opt);
  ASSERT_EQ(bit.bit_parallel_configurations(), bit.configurations());
  const auto expected = cycle.search(queries, 4);
  const auto actual = bit.search(queries, 4);
  ASSERT_EQ(actual, expected);
  EXPECT_TRUE(bit.last_stats().same_work(cycle.last_stats()));
  test::expect_exact_knn_results(data, queries, 4, actual);
}

INSTANTIATE_TEST_SUITE_P(Grid, PackedEngineSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 11u),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "g" + std::to_string(info.param);
                         });

// --- Multiplexing equivalence across slice counts -----------------------------

class MuxSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MuxSweep, EverySliceCountReturnsExactKnn) {
  // Every slice count, on both backends, at 1 and 4 threads, in one and in
  // several configurations: answers equal knn_scan, and the backends do the
  // same device work.
  const std::size_t slices = GetParam();
  const auto data = knn::BinaryDataset::uniform(18, 12, 8200 + slices);
  const auto queries =
      knn::BinaryDataset::uniform(2 * slices + 1, 12, 8300);
  for (const std::size_t cap : {std::size_t{0}, std::size_t{5}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      EngineOptions cycle_opt;
      cycle_opt.multiplex_slices = slices;
      cycle_opt.max_vectors_per_config = cap;
      cycle_opt.threads = threads;
      EngineOptions bit_opt = cycle_opt;
      bit_opt.backend = SimulationBackend::kBitParallel;
      ApKnnEngine cycle(data, cycle_opt);
      ApKnnEngine bit(data, bit_opt);
      ASSERT_EQ(bit.bit_parallel_configurations(), bit.configurations());
      const std::string ctx = "slices=" + std::to_string(slices) +
                              " cap=" + std::to_string(cap) +
                              " threads=" + std::to_string(threads);
      test::expect_exact_knn_results(data, queries, 3,
                                     cycle.search(queries, 3), ctx + " cycle");
      test::expect_exact_knn_results(data, queries, 3, bit.search(queries, 3),
                                     ctx + " bit");
      EXPECT_TRUE(bit.last_stats().same_work(cycle.last_stats())) << ctx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, MuxSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u));

}  // namespace
}  // namespace apss::core
