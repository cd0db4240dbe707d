#include "core/opt/statistical_reduction.hpp"

#include <gtest/gtest.h>

#include <set>

#include "apsim/simulator.hpp"
#include "core/stream.hpp"
#include "knn/exact.hpp"

namespace apss::core {
namespace {

TEST(ReductionGroup, BuildsFig7Structure) {
  const auto data = knn::BinaryDataset::uniform(4, 8, 700);
  anml::AutomataNetwork net;
  const auto layout = append_reduction_group(net, data, 0, 4, /*k_prime=*/2);
  EXPECT_EQ(layout.macros.size(), 4u);
  EXPECT_NE(layout.local_neighbor_counter, anml::kInvalidElement);
  EXPECT_EQ(net.element(layout.local_neighbor_counter).threshold, 2u);
  // LNC resets every distance counter (4 edges) and takes enables from
  // every report state (4 edges) plus one EOF re-arm edge.
  EXPECT_EQ(net.fan_out(layout.local_neighbor_counter), 4u);
  EXPECT_EQ(net.fan_in(layout.local_neighbor_counter), 5u);
  EXPECT_TRUE(net.validate().empty());
}

TEST(ReductionGroup, RejectsBadArguments) {
  const auto data = knn::BinaryDataset::uniform(4, 8, 701);
  anml::AutomataNetwork net;
  EXPECT_THROW(append_reduction_group(net, data, 0, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(append_reduction_group(net, data, 0, 4, 0),
               std::invalid_argument);
  EXPECT_THROW(append_reduction_group(net, data, 2, 4, 1),
               std::invalid_argument);
}

/// Runs one query against a reduction group and returns report events.
std::vector<apsim::ReportEvent> run_group(const knn::BinaryDataset& data,
                                          std::uint32_t k_prime,
                                          const util::BitVector& query) {
  anml::AutomataNetwork net;
  append_reduction_group(net, data, 0, data.size(), k_prime);
  apsim::Simulator sim(net);
  const SymbolStreamEncoder enc(StreamSpec{data.dims(), 1});
  return sim.run(enc.encode_query(query));
}

TEST(ReductionGroup, SuppressesDistantReports) {
  // 8 vectors at staggered distances from the all-zeros query: vector i has
  // i bits set, so reports arrive one cycle apart. With k'=2 the LNC resets
  // the group shortly after the 2nd report; distant vectors never report.
  const std::size_t d = 16;
  knn::BinaryDataset data(8, d);
  for (std::size_t v = 0; v < 8; ++v) {
    for (std::size_t i = 0; i < v; ++i) {
      data.set(v, i, true);
    }
  }
  const util::BitVector query(d);

  const auto without = run_group(data, /*k_prime=*/255, query);
  EXPECT_EQ(without.size(), 8u);  // threshold never reached: all report

  const auto with = run_group(data, /*k_prime=*/2, query);
  EXPECT_LT(with.size(), 8u);
  EXPECT_GE(with.size(), 2u);  // the top-k' always escape
  // The survivors are the closest vectors (earliest reporters).
  std::set<std::uint32_t> ids;
  for (const auto& e : with) {
    ids.insert(e.report_code);
  }
  EXPECT_TRUE(ids.count(0));
  EXPECT_TRUE(ids.count(1));
  // The farthest vector is suppressed.
  EXPECT_FALSE(ids.count(7));
}

TEST(ReductionGroup, BandwidthReductionApproachesPOverKPrime) {
  // 16 staggered vectors, k'=2: expect ~2-5 reports (reset latency lets a
  // couple extra through) instead of 16 -> report reduction >= 3x.
  const std::size_t d = 32;
  knn::BinaryDataset data(16, d);
  for (std::size_t v = 0; v < 16; ++v) {
    for (std::size_t i = 0; i < v; ++i) {
      data.set(v, i, true);
    }
  }
  const auto events = run_group(data, 2, util::BitVector(d));
  EXPECT_LE(events.size(), 5u);
}

TEST(ReductionGroup, ReArmsForNextQuery) {
  knn::BinaryDataset data(4, 8);
  for (std::size_t v = 0; v < 4; ++v) {
    for (std::size_t i = 0; i < v; ++i) {
      data.set(v, i, true);
    }
  }
  anml::AutomataNetwork net;
  append_reduction_group(net, data, 0, 4, /*k_prime=*/1);
  apsim::Simulator sim(net);
  const SymbolStreamEncoder enc(StreamSpec{8, 1});
  knn::BinaryDataset queries(2, 8);  // two identical all-zero queries
  const auto events = sim.run(enc.encode_batch(queries));
  // Both frames must produce (suppressed) reports; the closest vector id 0
  // reports in each frame.
  const std::size_t cpq = StreamSpec{8, 1}.cycles_per_query();
  bool frame0 = false, frame1 = false;
  for (const auto& e : events) {
    if (e.report_code == 0) {
      (e.cycle <= cpq ? frame0 : frame1) = true;
    }
  }
  EXPECT_TRUE(frame0);
  EXPECT_TRUE(frame1);
}

// --- Table VI Monte Carlo model ----------------------------------------------

TEST(ReductionModel, RejectsUncoveredK) {
  ReductionModelParams p;
  p.n = 32;
  p.group_size = 16;  // 2 groups
  p.k = 4;
  const std::size_t k_primes[] = {1};  // k' x R = 2 < k
  EXPECT_THROW(evaluate_reduction_sweep(p, k_primes), std::invalid_argument);
}

TEST(ReductionModel, LargeKPrimeIsAlwaysCorrect) {
  ReductionModelParams p;
  p.n = 128;
  p.dims = 32;
  p.group_size = 16;
  p.k = 4;
  const std::size_t k_primes[] = {16};  // keep everything: lossless
  p.queries_per_run = 16;
  p.runs = 5;
  const auto r = evaluate_reduction_sweep(p, k_primes)[0];
  EXPECT_DOUBLE_EQ(r.incorrect_run_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.incorrect_query_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_reports_per_query, 128.0);
}

TEST(ReductionModel, AccuracyImprovesWithKPrime) {
  ReductionModelParams p;
  p.n = 256;
  p.dims = 64;
  p.group_size = 16;
  p.k = 8;
  p.queries_per_run = 64;
  p.runs = 10;
  const std::size_t k_primes[] = {1, 2, 4};
  const auto results = evaluate_reduction_sweep(p, k_primes);
  double prev = 1.1;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_LE(results[i].incorrect_query_fraction, prev)
        << "k'=" << k_primes[i];
    prev = results[i].incorrect_query_fraction + 1e-12;
  }
}

TEST(ReductionModel, BandwidthScalesWithKPrime) {
  ReductionModelParams p;
  p.n = 256;
  p.dims = 32;
  p.group_size = 16;
  p.k = 2;
  const std::size_t k_primes[] = {2};
  p.queries_per_run = 8;
  p.runs = 2;
  const auto r = evaluate_reduction_sweep(p, k_primes)[0];
  // 16 groups x k'=2 = 32 reports instead of 256: an 8x reduction.
  EXPECT_DOUBLE_EQ(r.mean_reports_per_query, 32.0);
}

TEST(ReductionModel, DeterministicForSeed) {
  ReductionModelParams p;
  p.n = 128;
  p.dims = 64;
  p.group_size = 16;
  p.k = 2;
  const std::size_t k_primes[] = {1};
  p.queries_per_run = 32;
  p.runs = 4;
  const auto a = evaluate_reduction_sweep(p, k_primes)[0];
  const auto b = evaluate_reduction_sweep(p, k_primes)[0];
  EXPECT_DOUBLE_EQ(a.incorrect_query_fraction, b.incorrect_query_fraction);
  util::ThreadPool pool(4);
  const auto c = evaluate_reduction_sweep(p, k_primes, &pool)[0];
  EXPECT_DOUBLE_EQ(a.incorrect_query_fraction, c.incorrect_query_fraction);
}

}  // namespace
}  // namespace apss::core
