#pragma once
// Exact CPU kNN baselines (the FLANN-style linear scan of Sec. IV-C).
//
// Two top-k strategies are provided because the paper contrasts sorting
// costs: a bounded max-heap (the classic priority-queue insertion the paper
// attributes to von-Neumann baselines) and a quickselect-based k-selection.
// Both return neighbors sorted by (distance, id).

#include <cstdint>
#include <span>
#include <vector>

#include "knn/dataset.hpp"
#include "util/thread_pool.hpp"

namespace apss::knn {

struct Neighbor {
  std::uint32_t id = 0;
  std::uint32_t distance = 0;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
  /// Orders by (distance, id): deterministic under distance ties.
  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  }
};

enum class TopKStrategy {
  kBoundedHeap,  ///< O(n log k) priority-queue insertions
  kSelect,       ///< O(n) average quickselect then sort the k survivors
};

/// Exact k nearest neighbors of `query` by linear scan. k is clamped to n.
std::vector<Neighbor> knn_scan(const BinaryDataset& data,
                               std::span<const std::uint64_t> query,
                               std::size_t k,
                               TopKStrategy strategy = TopKStrategy::kBoundedHeap);

/// All pairwise distances (no top-k); used by benches that model the
/// distance phase separately from the sort phase.
std::vector<std::uint32_t> all_distances(const BinaryDataset& data,
                                         std::span<const std::uint64_t> query);

/// Batch kNN over a query set; parallelized over queries when `pool` given.
std::vector<std::vector<Neighbor>> batch_knn(
    const BinaryDataset& data, const BinaryDataset& queries, std::size_t k,
    util::ThreadPool* pool = nullptr,
    TopKStrategy strategy = TopKStrategy::kBoundedHeap);

/// recall@k: |result ids ∩ true ids| / k, with the exact set computed by
/// linear scan. Used for the approximate-index experiments.
double recall_at_k(const BinaryDataset& data,
                   std::span<const std::uint64_t> query, std::size_t k,
                   std::span<const Neighbor> result);

}  // namespace apss::knn
