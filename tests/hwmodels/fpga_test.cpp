#include "hwmodels/fpga_accelerator.hpp"

#include <gtest/gtest.h>

#include "knn/exact.hpp"
#include "util/rng.hpp"

namespace apss::hwmodels {
namespace {

TEST(HardwarePriorityQueue, KeepsKSmallestSorted) {
  HardwarePriorityQueue pq(3);
  pq.insert({1, 10});
  pq.insert({2, 5});
  pq.insert({3, 7});
  pq.insert({4, 20});  // rejected: worse than current worst
  pq.insert({5, 1});   // displaces 10
  const auto& c = pq.contents();
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], (knn::Neighbor{5, 1}));
  EXPECT_EQ(c[1], (knn::Neighbor{2, 5}));
  EXPECT_EQ(c[2], (knn::Neighbor{3, 7}));
}

TEST(HardwarePriorityQueue, TieBreaksById) {
  HardwarePriorityQueue pq(2);
  pq.insert({9, 4});
  pq.insert({3, 4});
  pq.insert({7, 4});
  const auto& c = pq.contents();
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].id, 3u);
  EXPECT_EQ(c[1].id, 7u);
}

TEST(HardwarePriorityQueue, RejectsZeroK) {
  EXPECT_THROW(HardwarePriorityQueue(0), std::invalid_argument);
}

TEST(FpgaAccelerator, ResultsMatchCpuExact) {
  util::Rng rng(900);
  const auto data = knn::BinaryDataset::uniform(300, 128, rng.next());
  const auto queries = knn::BinaryDataset::uniform(50, 128, rng.next());
  const FpgaAccelerator fpga(data, {});
  FpgaRunStats stats;
  const auto results = fpga.search(queries, 4, stats);
  ASSERT_EQ(results.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(results[q], knn::knn_scan(data, queries.row(q), 4))
        << "query " << q;
  }
  EXPECT_EQ(stats.batches, 3u);  // ceil(50 / 24 lanes)
}

TEST(FpgaAccelerator, CycleModelMatchesPaperKintexRows) {
  // Table III: SIFT small (n=1024, d=128, q=4096) on Kintex-7 = 3.78 ms.
  FpgaOptions opt;  // 24 lanes @ 185 MHz
  const auto data = knn::BinaryDataset::uniform(4, 128, 901);
  const FpgaAccelerator fpga(data, opt);
  const FpgaRunStats sift = fpga.project(4096, 1024, 128, 4);
  EXPECT_NEAR(sift.seconds(opt) * 1e3, 3.78, 0.3);

  const FpgaRunStats word = fpga.project(4096, 1024, 64, 2);
  EXPECT_NEAR(word.seconds(opt) * 1e3, 1.89, 0.2);

  const FpgaRunStats tag = fpga.project(4096, 512, 256, 16);
  EXPECT_NEAR(tag.seconds(opt) * 1e3, 4.33, 0.6);

  // Table IV: SIFT large (n=2^20) = 3.69 s.
  const FpgaRunStats large = fpga.project(4096, 1u << 20, 128, 4);
  EXPECT_NEAR(large.seconds(opt), 3.69, 0.3);
}

TEST(FpgaAccelerator, CyclesScaleLinearlyWithNAndBatches) {
  const auto data = knn::BinaryDataset::uniform(4, 64, 902);
  const FpgaAccelerator fpga(data, {});
  const auto a = fpga.project(24, 1000, 64, 4);
  const auto b = fpga.project(24, 2000, 64, 4);
  const auto c = fpga.project(48, 1000, 64, 4);
  EXPECT_NEAR(static_cast<double>(b.cycles) / a.cycles, 2.0, 0.05);
  EXPECT_NEAR(static_cast<double>(c.cycles) / a.cycles, 2.0, 0.1);
}

TEST(FpgaAccelerator, RejectsBadArguments) {
  EXPECT_THROW(FpgaAccelerator(knn::BinaryDataset(), {}),
               std::invalid_argument);
  const auto data = knn::BinaryDataset::uniform(4, 16, 903);
  FpgaOptions bad;
  bad.query_lanes = 0;
  EXPECT_THROW(FpgaAccelerator(data, bad), std::invalid_argument);
  const FpgaAccelerator ok(data, {});
  FpgaRunStats stats;
  EXPECT_THROW(ok.search(knn::BinaryDataset::uniform(2, 8, 1), 3, stats),
               std::invalid_argument);
}

}  // namespace
}  // namespace apss::hwmodels
