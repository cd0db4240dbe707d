#include "core/temporal_decode.hpp"

#include <algorithm>

namespace apss::core {

std::vector<std::vector<knn::Neighbor>> TemporalSortDecoder::decode(
    std::span<const apsim::ReportEvent> events, std::size_t k) const {
  std::vector<std::vector<knn::Neighbor>> results(query_count_);
  if (k > 0) {
    for (auto& list : results) {
      list.reserve(std::min(k, events.size()));
    }
  }
  for (const apsim::ReportEvent& event : events) {
    auto [query, neighbor] = decode_event(event);
    auto& list = results[query];
    // Arrivals are distance-ordered within a query, so past the k-th only
    // the rest of the k-th one's distance group can still make the cut.
    if (k == 0 || list.size() < k ||
        neighbor.distance == list[k - 1].distance) {
      list.push_back(neighbor);
    }
  }
  // A distance group shares a cycle and arrives in counter order, not id
  // order: put each list in (distance, id) order, then cut the tie at k.
  for (auto& list : results) {
    if (!std::is_sorted(list.begin(), list.end())) {
      std::sort(list.begin(), list.end());
    }
    if (k > 0 && list.size() > k) {
      list.resize(k);
    }
  }
  return results;
}

}  // namespace apss::core
