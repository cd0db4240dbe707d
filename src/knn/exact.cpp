#include "knn/exact.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/bitvector.hpp"

namespace apss::knn {

namespace {

std::vector<Neighbor> topk_bounded_heap(const BinaryDataset& data,
                                        std::span<const std::uint64_t> query,
                                        std::size_t k) {
  std::vector<Neighbor> heap;  // max-heap on (distance, id)
  heap.reserve(k + 1);
  const auto worse = [](const Neighbor& a, const Neighbor& b) {
    return a < b;  // max-heap: parent is the WORST of the kept set
  };
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto dist = static_cast<std::uint32_t>(
        util::hamming_distance(data.row(i), query));
    const Neighbor cand{static_cast<std::uint32_t>(i), dist};
    if (heap.size() < k) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end(), worse);
    } else if (cand < heap.front()) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), worse);
  return heap;
}

std::vector<Neighbor> topk_select(const BinaryDataset& data,
                                  std::span<const std::uint64_t> query,
                                  std::size_t k) {
  std::vector<Neighbor> all(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    all[i] = {static_cast<std::uint32_t>(i),
              static_cast<std::uint32_t>(
                  util::hamming_distance(data.row(i), query))};
  }
  if (k < all.size()) {
    std::nth_element(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                     all.end());
    all.resize(k);
  }
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace

std::vector<Neighbor> knn_scan(const BinaryDataset& data,
                               std::span<const std::uint64_t> query,
                               std::size_t k, TopKStrategy strategy) {
  k = std::min(k, data.size());
  if (k == 0) {
    return {};
  }
  return strategy == TopKStrategy::kBoundedHeap
             ? topk_bounded_heap(data, query, k)
             : topk_select(data, query, k);
}

std::vector<std::uint32_t> all_distances(const BinaryDataset& data,
                                         std::span<const std::uint64_t> query) {
  std::vector<std::uint32_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i] =
        static_cast<std::uint32_t>(util::hamming_distance(data.row(i), query));
  }
  return out;
}

std::vector<std::vector<Neighbor>> batch_knn(const BinaryDataset& data,
                                             const BinaryDataset& queries,
                                             std::size_t k,
                                             util::ThreadPool* pool,
                                             TopKStrategy strategy) {
  std::vector<std::vector<Neighbor>> results(queries.size());
  const auto run_one = [&](std::size_t q) {
    results[q] = knn_scan(data, queries.row(q), k, strategy);
  };
  if (pool != nullptr) {
    pool->parallel_for(0, queries.size(), run_one, /*grain=*/8);
  } else {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      run_one(q);
    }
  }
  return results;
}

double recall_at_k(const BinaryDataset& data,
                   std::span<const std::uint64_t> query, std::size_t k,
                   std::span<const Neighbor> result) {
  const auto truth = knn_scan(data, query, k);
  if (truth.empty()) {
    return 1.0;
  }
  std::unordered_set<std::uint32_t> truth_ids;
  for (const Neighbor& nb : truth) {
    truth_ids.insert(nb.id);
  }
  std::size_t hits = 0;
  for (const Neighbor& nb : result) {
    hits += truth_ids.count(nb.id);
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

}  // namespace apss::knn
