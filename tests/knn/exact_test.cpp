#include "knn/exact.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.hpp"

namespace apss::knn {
namespace {

BinaryDataset tiny_dataset() {
  BinaryDataset d(4, 4);
  d.set_vector(0, util::BitVector::parse("1011"));
  d.set_vector(1, util::BitVector::parse("0000"));
  d.set_vector(2, util::BitVector::parse("1001"));
  d.set_vector(3, util::BitVector::parse("1111"));
  return d;
}

TEST(KnnScan, FindsExactNeighbors) {
  const BinaryDataset d = tiny_dataset();
  const util::BitVector q = util::BitVector::parse("1001");
  const auto result = knn_scan(d, q.words(), 2);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 2u);  // exact match, distance 0
  EXPECT_EQ(result[0].distance, 0u);
  EXPECT_EQ(result[1].id, 0u);  // distance 1
  EXPECT_EQ(result[1].distance, 1u);
}

TEST(KnnScan, KClampsToDatasetSize) {
  const BinaryDataset d = tiny_dataset();
  const util::BitVector q(4);
  EXPECT_EQ(knn_scan(d, q.words(), 100).size(), 4u);
  EXPECT_TRUE(knn_scan(d, q.words(), 0).empty());
}

TEST(KnnScan, TieBreaksById) {
  BinaryDataset d(3, 8);  // all identical -> all distance ties
  const auto result = knn_scan(d, util::BitVector(8).words(), 3);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].id, 0u);
  EXPECT_EQ(result[1].id, 1u);
  EXPECT_EQ(result[2].id, 2u);
}

TEST(KnnScan, HeapAndSelectAgree) {
  util::Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.below(200);
    const std::size_t dims = 8 + rng.below(200);
    const std::size_t k = 1 + rng.below(16);
    const BinaryDataset d = BinaryDataset::uniform(n, dims, rng.next());
    const BinaryDataset q = BinaryDataset::uniform(1, dims, rng.next());
    const auto heap = knn_scan(d, q.row(0), k, TopKStrategy::kBoundedHeap);
    const auto select = knn_scan(d, q.row(0), k, TopKStrategy::kSelect);
    EXPECT_EQ(heap, select) << "n=" << n << " dims=" << dims << " k=" << k;
  }
}

TEST(KnnScan, MatchesBruteForceSort) {
  util::Rng rng(22);
  const BinaryDataset d = BinaryDataset::uniform(300, 64, rng.next());
  const BinaryDataset q = BinaryDataset::uniform(5, 64, rng.next());
  for (std::size_t qi = 0; qi < q.size(); ++qi) {
    std::vector<Neighbor> all;
    for (std::size_t i = 0; i < d.size(); ++i) {
      all.push_back({static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(
                         util::hamming_distance(d.row(i), q.row(qi)))});
    }
    std::sort(all.begin(), all.end());
    all.resize(10);
    EXPECT_EQ(knn_scan(d, q.row(qi), 10), all);
  }
}

TEST(AllDistances, MatchesPerRowHamming) {
  const BinaryDataset d = tiny_dataset();
  const util::BitVector q = util::BitVector::parse("1001");
  const auto dist = all_distances(d, q.words());
  ASSERT_EQ(dist.size(), 4u);
  EXPECT_EQ(dist[0], 1u);
  EXPECT_EQ(dist[1], 2u);
  EXPECT_EQ(dist[2], 0u);
  EXPECT_EQ(dist[3], 2u);
}

TEST(BatchKnn, SerialAndParallelAgree) {
  const BinaryDataset d = BinaryDataset::uniform(500, 128, 31);
  const BinaryDataset q = BinaryDataset::uniform(64, 128, 32);
  util::ThreadPool pool(4);
  const auto serial = batch_knn(d, q, 5, nullptr);
  const auto parallel = batch_knn(d, q, 5, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "query " << i;
  }
}

TEST(RecallAtK, ComputesOverlap) {
  const BinaryDataset d = tiny_dataset();
  const util::BitVector q = util::BitVector::parse("1001");
  const auto exact = knn_scan(d, q.words(), 2);  // ids {2, 0}
  EXPECT_DOUBLE_EQ(recall_at_k(d, q.words(), 2, exact), 1.0);
  const std::vector<Neighbor> half = {{2, 0}, {3, 2}};
  EXPECT_DOUBLE_EQ(recall_at_k(d, q.words(), 2, half), 0.5);
  const std::vector<Neighbor> none = {{1, 2}, {3, 2}};
  EXPECT_DOUBLE_EQ(recall_at_k(d, q.words(), 2, none), 0.0);
}

}  // namespace
}  // namespace apss::knn
