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
//
// A search over several board configurations decodes one pass per
// configuration into the same CandidateLists (Sec. III-C's per-query
// bookkeeping across reconfigurations): each pass appends its arrivals,
// a per-query distance histogram gives the running k-th distance that
// bounds the next pass, and each answer is cut once, after the last pass.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "apsim/simulator.hpp"
#include "core/design.hpp"
#include "knn/exact.hpp"

namespace apss::core {

/// Per-query nearest-neighbor candidates gathered over passes, one pass
/// per configuration in ascending id order (so each pass's ids exceed the
/// ids of every pass before it). A pass is opened, filled by add() in
/// arrival order (ascending distance per query, a distance group in any
/// order) and then committed or rolled back whole. Each query keeps:
///   - its candidate list, every committed pass's kept arrivals in append
///     order: a pass keeps a query's first k arrivals plus the rest of the
///     k-th one's distance group (k = 0 keeps them all);
///   - D_k, the want-th smallest candidate distance, once the query holds
///     `want` candidates: from the list itself while one pass has filled
///     it (its arrivals are in distance order), then from a histogram of
///     its candidates over distances 0..dims. D_k only falls as passes
///     commit, so keeping it is amortized O(1).
/// take() then cuts each answer to the first `want` candidates in
/// (distance, id) order.
class CandidateLists {
 public:
  CandidateLists() = default;
  /// `query_count` empty lists over distances 0..dims; a pass keeps k
  /// arrivals per query (plus the k-th one's distance group) and an answer
  /// holds up to `want` >= 1 entries.
  CandidateLists(std::size_t query_count, std::size_t dims, std::size_t k,
                 std::size_t want);

  std::size_t queries() const noexcept { return lists_.size(); }

  /// Opens a pass of `arrivals` events in all (a capacity hint: a list's
  /// first pass reserves min(k, arrivals) entries).
  void begin_pass(std::size_t arrivals);

  /// Appends `n`, query q's next arrival in the open pass, under the pass
  /// rule above; n.distance must be at most dims. Defined here so the
  /// decoder's per-event loop inlines it.
  void add(std::size_t q, const knn::Neighbor& n) {
    std::vector<knn::Neighbor>& list = lists_[q];
    const std::size_t mark = state_[q].mark;
    if (k_ == 0 || list.size() - mark < k_ ||
        n.distance == list[mark + k_ - 1].distance) {
      list.push_back(n);
    }
  }

  /// Keeps the open pass: counts its entries into the histograms and
  /// lowers each query's D_k.
  void commit();
  /// Discards the open pass: every list is as it was at begin_pass().
  void rollback();

  /// Drops every candidate whose id is in [first, last) — one
  /// configuration's vectors — and recounts the histograms. Like take(),
  /// it is called with no pass open.
  void drop_ids(std::uint32_t first, std::uint32_t last);

  /// True once query q holds at least `want` committed candidates.
  bool full(std::size_t q) const noexcept { return state_[q].mark >= want_; }
  /// D_k of a full query q: a later pass's vector can enter its answer
  /// only at a distance below it (it loses every tie on id).
  std::uint32_t kth_distance(std::size_t q) const noexcept {
    return state_[q].kth;
  }

  /// Query q's answer: its first `want` candidates in (distance, id)
  /// order. A list that one pass filled is already in distance order and
  /// is cut in place and handed over; any other list takes one stable
  /// counting pass by distance over its candidates at or below D_k, into
  /// an answer allocated at its final size. Either way a distance group
  /// that arrived out of id order is sorted.
  /// Leaves query q's list empty: take each answer once, after the last
  /// pass.
  std::vector<knn::Neighbor> take(std::size_t q);

 private:
  struct QueryState {
    /// Committed candidates: the list's size outside an open pass.
    std::size_t mark = 0;
    /// D_k once full(); dims while the list holds fewer than `want`.
    std::uint32_t kth = 0;
    /// More than one pass has added candidates. Until then the list is
    /// one pass's arrivals, in distance order, and its histogram row is
    /// unused.
    bool multi = false;
    /// Once multi: the candidates at a distance of at most `kth`.
    std::size_t at_or_below = 0;
  };

  /// Lowers query q's `kth` to the smallest distance that at least `want`
  /// candidates reach.
  void lower_kth(std::size_t q);

  std::size_t dims_ = 0;
  std::size_t k_ = 0;
  std::size_t want_ = 1;
  std::vector<std::vector<knn::Neighbor>> lists_;
  std::vector<QueryState> state_;
  /// queries x (dims + 1) candidate counts, query-major.
  std::vector<std::uint32_t> histogram_;
  /// take()'s counting pass: per-distance output cursors and its output.
  std::vector<std::size_t> cursor_;
  std::vector<knn::Neighbor> sorted_;
};

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
  /// slice — that would mean the automata design is broken. One pass of
  /// decode_pass() over fresh CandidateLists.
  std::vector<std::vector<knn::Neighbor>> decode(
      std::span<const apsim::ReportEvent> events, std::size_t k = 0) const;

  /// Decodes one pass's events into `lists` (which must hold query_count
  /// lists) and commits them; on a throw, `lists` are left as they were.
  void decode_pass(std::span<const apsim::ReportEvent> events,
                   CandidateLists& lists) const;

  /// Decodes one base-design event's (query index, neighbor). Defined here
  /// so that the per-event loop inlines it.
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
  /// decode_pass()'s per-event loop, one instantiation per design so the
  /// base design's loop carries no multiplexing branch.
  template <bool kMultiplexed>
  void collect(std::span<const apsim::ReportEvent> events,
               CandidateLists& lists) const;

  StreamSpec spec_;
  std::size_t query_count_;
  std::size_t slices_;
};

}  // namespace apss::core
