#include "core/temporal_decode.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

#include "core/opt/stream_multiplexing.hpp"

namespace apss::core {

CandidateLists::CandidateLists(std::size_t query_count, std::size_t dims,
                               std::size_t k, std::size_t want)
    : dims_(dims), k_(k), want_(want), lists_(query_count),
      state_(query_count) {
  if (want == 0) {
    throw std::invalid_argument("CandidateLists: want must be >= 1");
  }
  for (QueryState& s : state_) {
    s.kth = static_cast<std::uint32_t>(dims);
  }
}

void CandidateLists::begin_pass(std::size_t arrivals) {
  for (std::vector<knn::Neighbor>& list : lists_) {
    if (k_ > 0 && list.capacity() == 0) {
      list.reserve(std::min(k_, arrivals));
    }
  }
}

void CandidateLists::commit() {
  for (std::size_t q = 0; q < lists_.size(); ++q) {
    const std::vector<knn::Neighbor>& list = lists_[q];
    QueryState& s = state_[q];
    if (list.size() == s.mark) {
      continue;
    }
    if (s.mark == 0 && !s.multi) {
      // One pass's arrivals are in distance order, so its want-th entry
      // holds D_k; the histogram waits for a second pass.
      if (list.size() >= want_) {
        s.kth = list[want_ - 1].distance;
      }
    } else {
      std::size_t from = s.mark;
      if (!s.multi) {
        s.multi = true;
        from = 0;
        s.at_or_below = 0;
        if (histogram_.empty()) {
          histogram_.assign(lists_.size() * (dims_ + 1), 0);
        }
      }
      std::uint32_t* hist = histogram_.data() + q * (dims_ + 1);
      for (std::size_t i = from; i < list.size(); ++i) {
        const std::uint32_t distance = list[i].distance;
        ++hist[distance];
        s.at_or_below += distance <= s.kth;
      }
      lower_kth(q);
    }
    s.mark = list.size();
  }
}

void CandidateLists::rollback() {
  for (std::size_t q = 0; q < lists_.size(); ++q) {
    lists_[q].resize(state_[q].mark);
  }
}

void CandidateLists::lower_kth(std::size_t q) {
  QueryState& s = state_[q];
  const std::uint32_t* hist = histogram_.data() + q * (dims_ + 1);
  // at_or_below - hist[kth] counts the candidates below kth; kth = 0 never
  // moves, since want >= 1.
  while (s.at_or_below - hist[s.kth] >= want_) {
    s.at_or_below -= hist[s.kth];
    --s.kth;
  }
}

void CandidateLists::drop_ids(std::uint32_t first, std::uint32_t last) {
  for (std::size_t q = 0; q < lists_.size(); ++q) {
    std::vector<knn::Neighbor>& list = lists_[q];
    QueryState& s = state_[q];
    std::erase_if(list, [&](const knn::Neighbor& n) {
      return n.id >= first && n.id < last;
    });
    s.mark = list.size();
    s.kth = static_cast<std::uint32_t>(dims_);
    if (!s.multi) {
      if (list.size() >= want_) {
        s.kth = list[want_ - 1].distance;
      }
      continue;
    }
    std::uint32_t* hist = histogram_.data() + q * (dims_ + 1);
    std::fill(hist, hist + dims_ + 1, 0);
    for (const knn::Neighbor& n : list) {
      ++hist[n.distance];
    }
    s.at_or_below = list.size();
    lower_kth(q);
  }
}

std::vector<knn::Neighbor> CandidateLists::take(std::size_t q) {
  std::vector<knn::Neighbor>& list = lists_[q];
  const QueryState& s = state_[q];
  if (!s.multi) {
    if (!std::is_sorted(list.begin(), list.end())) {
      std::sort(list.begin(), list.end());
    }
    if (list.size() > want_) {
      list.resize(want_);
    }
    return std::move(list);
  }
  // A stable pass by distance leaves each distance group in pass order,
  // which is id order, and within a pass in arrival order, so only a group
  // that arrived out of id order takes the sort below.
  const std::uint32_t* hist = histogram_.data() + q * (dims_ + 1);
  cursor_.resize(dims_ + 1);
  std::size_t at = 0;
  for (std::uint32_t v = 0; v <= s.kth; ++v) {
    cursor_[v] = at;
    at += hist[v];
  }
  sorted_.resize(at);
  for (const knn::Neighbor& n : list) {
    if (n.distance <= s.kth) {
      sorted_[cursor_[n.distance]++] = n;
    }
  }
  if (!std::is_sorted(sorted_.begin(), sorted_.end())) {
    std::sort(sorted_.begin(), sorted_.end());
  }
  list.clear();
  return std::vector<knn::Neighbor>(
      sorted_.begin(),
      sorted_.begin() + static_cast<std::ptrdiff_t>(std::min(at, want_)));
}

template <bool kMultiplexed>
void TemporalSortDecoder::collect(std::span<const apsim::ReportEvent> events,
                                  CandidateLists& lists) const {
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
    lists.add(query, neighbor);
  }
}

void TemporalSortDecoder::decode_pass(
    std::span<const apsim::ReportEvent> events, CandidateLists& lists) const {
  if (lists.queries() != query_count_) {
    throw std::invalid_argument("TemporalSortDecoder: list count mismatch");
  }
  lists.begin_pass(events.size());
  try {
    if (slices_ > 0) {
      collect<true>(events, lists);
    } else {
      collect<false>(events, lists);
    }
  } catch (...) {
    lists.rollback();
    throw;
  }
  lists.commit();
}

std::vector<std::vector<knn::Neighbor>> TemporalSortDecoder::decode(
    std::span<const apsim::ReportEvent> events, std::size_t k) const {
  CandidateLists lists(query_count_, spec_.dims, k,
                       k > 0 ? k : std::numeric_limits<std::size_t>::max());
  decode_pass(events, lists);
  std::vector<std::vector<knn::Neighbor>> results(query_count_);
  for (std::size_t q = 0; q < query_count_; ++q) {
    results[q] = lists.take(q);
  }
  return results;
}

}  // namespace apss::core
