#include "core/opt/interleaved.hpp"

#include <gtest/gtest.h>

#include "apsim/simulator.hpp"
#include "apss_test_support.hpp"
#include "util/rng.hpp"

namespace apss::core {
namespace {

TEST(InterleavedSpec, FrameArithmetic) {
  const InterleavedSpec spec{128};
  EXPECT_EQ(spec.cycles_per_query(), 129u);
  EXPECT_NEAR(spec.speedup_vs_base(), 260.0 / 129.0, 1e-12);
  // Query j's report window is [S_{j+1}+2, S_{j+1}+d+2].
  const auto [q0, d0] = spec.decode(129 + 1 + 2);  // S_1 = 130
  EXPECT_EQ(q0, 0u);
  EXPECT_EQ(d0, 0u);
  const auto [q0b, dmax] = spec.decode(130 + 128 + 2);
  EXPECT_EQ(q0b, 0u);
  EXPECT_EQ(dmax, 128u);
}

TEST(InterleavedSpec, RejectsPreWindowCycles) {
  const InterleavedSpec spec{8};
  EXPECT_THROW(spec.decode(2), std::out_of_range);
  EXPECT_THROW(spec.decode(5), std::out_of_range);
}

TEST(InterleavedMacro, StructureHasTwoParityHalves) {
  anml::AutomataNetwork net;
  const auto layout =
      append_interleaved_macro(net, util::BitVector::parse("1011"), 7);
  const auto stats = net.stats();
  EXPECT_EQ(stats.counter_count, 2u);
  EXPECT_EQ(stats.reporting_count, 2u);
  EXPECT_EQ(stats.start_count, 2u);
  EXPECT_EQ(net.element(layout.counter[0]).threshold, 4u);
  EXPECT_EQ(net.element(layout.report[1]).report_code, 7u);
  EXPECT_TRUE(net.validate().empty());
  // Roughly 2x the base macro's STE count.
  anml::AutomataNetwork base;
  append_hamming_macro(base, util::BitVector::parse("1011"), 7);
  EXPECT_NEAR(static_cast<double>(stats.ste_count),
              2.0 * base.stats().ste_count, 4.0);
}

TEST(InterleavedMacro, RejectsTinyDims) {
  anml::AutomataNetwork net;
  EXPECT_THROW(append_interleaved_macro(net, util::BitVector(1), 0),
               std::invalid_argument);
}

TEST(InterleavedEncoding, AlternatesSofMarkersAndFlushes) {
  const auto queries = knn::BinaryDataset::uniform(3, 8, 1);
  const auto stream = encode_interleaved_batch(queries);
  const InterleavedSpec spec{8};
  ASSERT_EQ(stream.size(), spec.stream_length(3));
  EXPECT_EQ(stream[0], InterleavedAlphabet::kSofA);
  EXPECT_EQ(stream[9], InterleavedAlphabet::kSofB);
  EXPECT_EQ(stream[18], InterleavedAlphabet::kSofA);
  EXPECT_EQ(stream[27], InterleavedAlphabet::kSofB);  // flush marker
  for (std::size_t i = 28; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i], Alphabet::kFill);
  }
}

TEST(InterleavedSearch, SingleQueryMatchesCpu) {
  const auto data = knn::BinaryDataset::uniform(20, 16, 2);
  const auto queries = knn::BinaryDataset::uniform(1, 16, 3);
  const auto results = interleaved_knn_search(data, queries, 5);
  test::expect_exact_knn_results(data, queries, 5, results);
}

TEST(InterleavedSearch, BackToBackQueriesProperty) {
  util::Rng rng(404);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 8 + rng.below(24);
    const std::size_t d = 4 + rng.below(36);
    const std::size_t q = 2 + rng.below(9);
    const std::size_t k = 1 + rng.below(6);
    const auto data = knn::BinaryDataset::uniform(n, d, rng.next());
    const auto queries = knn::BinaryDataset::uniform(q, d, rng.next());
    const auto results = interleaved_knn_search(data, queries, k);
    test::expect_exact_knn_results(
        data, queries, k, results,
        "trial " + std::to_string(trial) + " (n=" + std::to_string(n) +
            ", d=" + std::to_string(d) + ", k=" + std::to_string(k) + ")");
  }
}

TEST(InterleavedSearch, ThroughputIsDPlusOneCyclesPerQuery) {
  // Stream length grows by exactly d+1 per additional query.
  const InterleavedSpec spec{64};
  const auto q10 = knn::BinaryDataset::uniform(10, 64, 5);
  const auto q11 = knn::BinaryDataset::uniform(11, 64, 5);
  EXPECT_EQ(encode_interleaved_batch(q11).size() -
                encode_interleaved_batch(q10).size(),
            spec.cycles_per_query());
  // ~2x fewer cycles than the base frame for large d.
  EXPECT_GT(spec.speedup_vs_base(), 1.9);
}

TEST(InterleavedSearch, ReportsArriveSortedWithinEachQuery) {
  const auto data = knn::BinaryDataset::uniform(32, 24, 6);
  anml::AutomataNetwork net;
  for (std::size_t v = 0; v < data.size(); ++v) {
    append_interleaved_macro(net, data.vector(v),
                             static_cast<std::uint32_t>(v));
  }
  apsim::Simulator sim(net);
  const auto queries = knn::BinaryDataset::uniform(5, 24, 7);
  const auto events = sim.run(encode_interleaved_batch(queries));
  const InterleavedSpec spec{24};
  // Every vector reports once per query.
  EXPECT_EQ(events.size(), data.size() * queries.size());
  std::vector<std::size_t> last_distance(queries.size(), 0);
  for (const auto& e : events) {
    const auto [query, distance] = spec.decode(e.cycle);
    ASSERT_LT(query, queries.size());
    EXPECT_GE(distance, last_distance[query]);
    last_distance[query] = distance;
    EXPECT_EQ(distance, util::hamming_distance(data.row(e.report_code),
                                               queries.row(query)));
  }
}

}  // namespace
}  // namespace apss::core
