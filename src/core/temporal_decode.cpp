#include "core/temporal_decode.hpp"

#include <algorithm>
#include <tuple>

#include "core/opt/stream_multiplexing.hpp"

namespace apss::core {

template <bool kMultiplexed>
void TemporalSortDecoder::collect(
    std::span<const apsim::ReportEvent> events, std::size_t k,
    std::vector<std::vector<knn::Neighbor>>& results) const {
  const std::size_t cpq = spec_.cycles_per_query();
  // The base design tracks the frame of the last event, cycles
  // frame_start + 1 .. frame_start + frame_span; only an event outside it
  // takes decode_event()'s division and checks.
  std::size_t query = 0;
  std::uint64_t frame_start = 0;
  std::uint64_t frame_span = 0;  // no frame before the first event
  for (const apsim::ReportEvent& event : events) {
    knn::Neighbor neighbor;
    if constexpr (kMultiplexed) {
      if (event.cycle == 0) {
        throw std::out_of_range("TemporalSortDecoder: zero cycle");
      }
      const std::size_t frame = (event.cycle - 1) / cpq;
      const std::size_t slice = MuxReportCode::slice(event.report_code);
      if (slice >= slices_) {
        throw std::out_of_range("TemporalSortDecoder: slice beyond S");
      }
      if (frame * slices_ >= query_count_) {
        throw std::out_of_range("TemporalSortDecoder: event beyond last frame");
      }
      query = frame * slices_ + slice;
      if (query >= query_count_) {
        continue;  // an unused slice of the partial last frame
      }
      neighbor = {MuxReportCode::vector_id(event.report_code),
                  static_cast<std::uint32_t>(spec_.distance_from_offset(
                      event.cycle - frame * cpq))};
    } else if (event.cycle - frame_start - 1 < frame_span) {
      neighbor = {event.report_code,
                  static_cast<std::uint32_t>(spec_.distance_from_offset(
                      event.cycle - frame_start))};
    } else {
      std::tie(query, neighbor) = decode_event(event);
      frame_start = query * cpq;
      frame_span = cpq;
    }
    auto& list = results[query];
    // Arrivals are distance-ordered within a query, so past the k-th only
    // the rest of the k-th one's distance group can still make the cut.
    if (k == 0 || list.size() < k ||
        neighbor.distance == list[k - 1].distance) {
      list.push_back(neighbor);
    }
  }
}

std::vector<std::vector<knn::Neighbor>> TemporalSortDecoder::decode(
    std::span<const apsim::ReportEvent> events, std::size_t k) const {
  std::vector<std::vector<knn::Neighbor>> results(query_count_);
  if (k > 0) {
    for (auto& list : results) {
      list.reserve(std::min(k, events.size()));
    }
  }
  if (slices_ > 0) {
    collect<true>(events, k, results);
  } else {
    collect<false>(events, k, results);
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
