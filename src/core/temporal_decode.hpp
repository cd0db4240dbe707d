#pragma once
// Host-side decoding of report events into sorted nearest-neighbor lists.
//
// The AP conveys each reporting-state activation as (stream offset, state
// id). Because the sorting macro makes more-similar vectors report earlier,
// decoding is a single pass: the offset within the query frame maps
// directly to the Hamming distance (StreamSpec::distance_from_offset), and
// events arrive already sorted by distance within each query. A
// multiplexed stream (Sec. VI-B) adds one step: the report code's bit slice
// picks the query within the frame.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "apsim/simulator.hpp"
#include "core/design.hpp"
#include "knn/exact.hpp"

namespace apss::core {

class TemporalSortDecoder {
 public:
  /// Decodes the events of `query_count` queries. `slices` = 0 is the base
  /// design: frame f carries query f and report codes are dataset vector
  /// ids. `slices` = S in 1..7 is a multiplexed stream: frame f carries
  /// queries f*S .. f*S+S-1, one per bit slice, and report codes are
  /// MuxReportCode values (vector id * 8 + slice).
  TemporalSortDecoder(StreamSpec spec, std::size_t query_count,
                      std::size_t slices = 0)
      : spec_(spec), query_count_(query_count), slices_(slices) {}

  /// Decodes a batch run's events (cycles are 1-based over the whole
  /// concatenated stream). Returns one neighbor list per query in
  /// (distance, id) order, cut to `k` if k > 0. The cut is canonical: a
  /// distance tie straddling the k-th slot keeps its smallest ids, whatever
  /// their arrival order within the cycle. A partial last multiplexed
  /// frame's unused slices (their macros see stale bit-0 data) are dropped.
  /// Throws std::out_of_range if an event falls outside any sort window or
  /// slice — that would mean the automata design is broken.
  std::vector<std::vector<knn::Neighbor>> decode(
      std::span<const apsim::ReportEvent> events, std::size_t k = 0) const;

  /// Decodes one base-design event's (query index, neighbor). Defined here
  /// so that decode()'s per-event loop inlines it.
  std::pair<std::size_t, knn::Neighbor> decode_event(
      const apsim::ReportEvent& event) const {
    if (event.cycle == 0) {
      throw std::out_of_range("TemporalSortDecoder: zero cycle");
    }
    const std::size_t cpq = spec_.cycles_per_query();
    const std::size_t query = (event.cycle - 1) / cpq;
    if (query >= query_count_) {
      throw std::out_of_range("TemporalSortDecoder: event beyond last query");
    }
    const std::size_t offset = event.cycle - query * cpq;
    const std::size_t distance = spec_.distance_from_offset(offset);
    return {query,
            {event.report_code, static_cast<std::uint32_t>(distance)}};
  }

 private:
  /// decode()'s per-event loop, one instantiation per design so the base
  /// design's loop carries no multiplexing branch.
  template <bool kMultiplexed>
  void collect(std::span<const apsim::ReportEvent> events, std::size_t k,
               std::vector<std::vector<knn::Neighbor>>& results) const;

  StreamSpec spec_;
  std::size_t query_count_;
  std::size_t slices_;
};

}  // namespace apss::core
