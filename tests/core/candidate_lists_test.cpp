// CandidateLists through its own interface: every answer and running k-th
// distance is checked against a reference that keeps each pass's arrivals
// under the same per-pass rule and sorts all of them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apsim/simulator.hpp"
#include "core/design.hpp"
#include "core/temporal_decode.hpp"
#include "knn/exact.hpp"
#include "util/rng.hpp"

namespace apss::core {
namespace {

/// One pass's arrivals: (query, neighbor) in arrival order.
using Pass = std::vector<std::pair<std::size_t, knn::Neighbor>>;

/// The same contract, the slow way: each pass keeps a query's first k
/// arrivals plus the rest of the k-th one's distance group; an answer is
/// the first `want` of a full sort of everything kept.
class Reference {
 public:
  Reference(std::size_t queries, std::size_t k, std::size_t want)
      : kept_(queries), k_(k), want_(want) {}

  void add(const Pass& pass) {
    std::vector<std::vector<knn::Neighbor>> in_pass(kept_.size());
    for (const auto& [q, n] : pass) {
      auto& list = in_pass[q];
      if (k_ == 0 || list.size() < k_ || n.distance == list[k_ - 1].distance) {
        list.push_back(n);
      }
    }
    for (std::size_t q = 0; q < kept_.size(); ++q) {
      kept_[q].insert(kept_[q].end(), in_pass[q].begin(), in_pass[q].end());
    }
  }
  void drop_ids(std::uint32_t first, std::uint32_t last) {
    for (auto& list : kept_) {
      std::erase_if(list, [&](const knn::Neighbor& n) {
        return n.id >= first && n.id < last;
      });
    }
  }
  std::vector<knn::Neighbor> answer(std::size_t q) const {
    std::vector<knn::Neighbor> all = kept_[q];
    std::sort(all.begin(), all.end());
    all.resize(std::min(all.size(), want_));
    return all;
  }
  bool full(std::size_t q) const { return kept_[q].size() >= want_; }
  std::uint32_t kth_distance(std::size_t q) const {
    return answer(q)[want_ - 1].distance;
  }

 private:
  std::vector<std::vector<knn::Neighbor>> kept_;
  std::size_t k_;
  std::size_t want_;
};

void feed(CandidateLists& lists, Reference& ref, const Pass& pass) {
  lists.begin_pass(pass.size());
  for (const auto& [q, n] : pass) {
    lists.add(q, n);
  }
  lists.commit();
  ref.add(pass);
}

void expect_bounds(const CandidateLists& lists, const Reference& ref,
                   std::size_t q) {
  ASSERT_EQ(lists.full(q), ref.full(q)) << "query " << q;
  if (ref.full(q)) {
    EXPECT_EQ(lists.kth_distance(q), ref.kth_distance(q)) << "query " << q;
  }
}

TEST(CandidateLists, TieGroupOutOfIdOrderStraddlesTheCut) {
  CandidateLists lists(1, 8, 3, 3);
  Reference ref(1, 3, 3);
  // Configuration 0 (ids < 10), then 1: each pass's ties arrive larger id
  // first, and the cut at want = 3 falls inside the distance-2 group that
  // both passes add to.
  feed(lists, ref, {{0, {5, 2}}, {0, {3, 2}}, {0, {8, 4}}});
  feed(lists, ref, {{0, {14, 1}}, {0, {12, 1}}, {0, {17, 2}}, {0, {11, 2}}});
  expect_bounds(lists, ref, 0);
  EXPECT_EQ(lists.kth_distance(0), 2u);
  const auto answer = lists.take(0);
  EXPECT_EQ(answer, ref.answer(0));
  EXPECT_EQ(answer, (std::vector<knn::Neighbor>{{12, 1}, {14, 1}, {3, 2}}));
}

TEST(CandidateLists, UncutPassKeepsFirstKArrivalsAndTheKthsGroup) {
  // A pass the simulator did not cut brings every arrival; the lists keep
  // the first k = 3 plus the rest of the third one's distance group. An
  // answer wider than k shows what was kept.
  CandidateLists lists(2, 8, 3, 8);
  Reference ref(2, 3, 8);
  feed(lists, ref,
       {{0, {1, 0}}, {1, {9, 5}}, {0, {7, 1}}, {0, {6, 2}}, {0, {2, 2}},
        {0, {4, 2}}, {1, {3, 6}}, {0, {5, 3}}, {0, {0, 4}}});
  const auto answer = lists.take(0);
  EXPECT_EQ(answer, ref.answer(0));
  EXPECT_EQ(answer, (std::vector<knn::Neighbor>{
                        {1, 0}, {7, 1}, {2, 2}, {4, 2}, {6, 2}}));
  EXPECT_EQ(lists.take(1), ref.answer(1));
}

TEST(CandidateLists, LaterPassThatKeepsNothingLeavesTheListInPlace) {
  // Query 0's later pass keeps nothing: its list is still one pass's
  // arrivals, cut in place (the answer keeps the list's reserved buffer,
  // wider than the cut). Query 1 gains a second pass and takes the
  // counting pass, whose answer is allocated at its final size.
  CandidateLists lists(2, 8, 4, 2);
  Reference ref(2, 4, 2);
  feed(lists, ref,
       {{0, {3, 1}}, {0, {1, 2}}, {0, {0, 3}}, {0, {2, 4}}, {1, {6, 3}},
        {1, {4, 5}}});
  feed(lists, ref, {{1, {11, 2}}});
  expect_bounds(lists, ref, 0);
  expect_bounds(lists, ref, 1);
  const auto in_place = lists.take(0);
  EXPECT_EQ(in_place, ref.answer(0));
  EXPECT_GT(in_place.capacity(), in_place.size());
  const auto counted = lists.take(1);
  EXPECT_EQ(counted, ref.answer(1));
  EXPECT_EQ(counted.capacity(), counted.size());
}

TEST(CandidateLists, KAboveTheCandidateCount) {
  CandidateLists lists(1, 16, 50, 50);
  Reference ref(1, 50, 50);
  feed(lists, ref, {{0, {2, 7}}, {0, {0, 9}}});
  feed(lists, ref, {{0, {31, 3}}, {0, {30, 9}}, {0, {33, 16}}});
  EXPECT_FALSE(lists.full(0));
  EXPECT_EQ(lists.take(0), ref.answer(0));
}

TEST(CandidateLists, KthDistanceFallsAcrossThreePasses) {
  // dims = 16, k = want = 3. The floor a next pass would take is
  // dims - D_k + 1, so it rises as D_k falls.
  CandidateLists lists(1, 16, 3, 3);
  Reference ref(1, 3, 3);
  feed(lists, ref, {{0, {0, 5}}, {0, {1, 7}}, {0, {2, 9}}, {0, {3, 11}}});
  expect_bounds(lists, ref, 0);
  EXPECT_EQ(lists.kth_distance(0), 9u);
  EXPECT_EQ(16 - lists.kth_distance(0) + 1, 8u);
  feed(lists, ref, {{0, {10, 6}}, {0, {11, 8}}});
  expect_bounds(lists, ref, 0);
  EXPECT_EQ(lists.kth_distance(0), 7u);
  feed(lists, ref, {{0, {20, 1}}, {0, {21, 6}}});
  expect_bounds(lists, ref, 0);
  EXPECT_EQ(lists.kth_distance(0), 6u);
  EXPECT_EQ(16 - lists.kth_distance(0) + 1, 11u);
  EXPECT_EQ(lists.take(0), ref.answer(0));
}

TEST(CandidateLists, DropIdsRemovesOneConfigurationsEntries) {
  // Three configurations of 10 ids each; the middle one is lost.
  CandidateLists lists(2, 8, 2, 2);
  Reference ref(2, 2, 2);
  feed(lists, ref,
       {{0, {4, 3}}, {0, {2, 4}}, {1, {9, 6}}, {1, {1, 7}}});
  feed(lists, ref,
       {{0, {12, 1}}, {0, {15, 2}}, {1, {13, 2}}, {1, {17, 2}}});
  feed(lists, ref, {{0, {21, 2}}, {1, {24, 5}}});
  expect_bounds(lists, ref, 0);
  EXPECT_EQ(lists.kth_distance(0), 2u);
  lists.drop_ids(10, 20);
  ref.drop_ids(10, 20);
  for (std::size_t q = 0; q < 2; ++q) {
    expect_bounds(lists, ref, q);
  }
  EXPECT_EQ(lists.kth_distance(0), 3u);
  EXPECT_EQ(lists.take(0), ref.answer(0));
  EXPECT_EQ(lists.take(1), ref.answer(1));
}

TEST(CandidateLists, FailedAttemptLeavesTheListsUnchanged) {
  const StreamSpec spec{4, 1};  // frame of 12 cycles, window offsets 8..12
  CandidateLists lists(1, spec.dims, 2, 2);
  Reference ref(1, 2, 2);
  feed(lists, ref, {{0, {3, 2}}, {0, {1, 3}}});
  // An attempt rolled back by its caller.
  lists.begin_pass(2);
  lists.add(0, {10, 0});
  lists.add(0, {11, 1});
  lists.rollback();
  expect_bounds(lists, ref, 0);
  // A decoder pass that meets an event outside the sort window throws
  // part-way and keeps none of its arrivals.
  const TemporalSortDecoder decoder(spec, 1);
  const std::vector<apsim::ReportEvent> broken = {{8, 0, 12}, {3, 0, 13}};
  EXPECT_THROW(decoder.decode_pass(broken, lists), std::out_of_range);
  expect_bounds(lists, ref, 0);
  EXPECT_EQ(lists.kth_distance(0), 3u);
  EXPECT_EQ(lists.take(0), ref.answer(0));
}

TEST(CandidateLists, RandomPassesMatchTheReference) {
  util::Rng rng(2029);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t dims = 1 + rng.below(24);
    const std::size_t queries = 1 + rng.below(4);
    const std::size_t k = 1 + rng.below(8);
    const std::size_t want = 1 + rng.below(k);
    CandidateLists lists(queries, dims, k, want);
    Reference ref(queries, k, want);
    const std::size_t passes = 1 + rng.below(5);
    for (std::size_t c = 0; c < passes; ++c) {
      // Per query, ascending distances with ties in random id order;
      // queries interleave as a multiplexed frame's slices do.
      std::vector<Pass> per_query(queries);
      for (std::size_t q = 0; q < queries; ++q) {
        for (std::size_t d = 0; d <= dims; ++d) {
          std::vector<std::uint32_t> ids;
          for (std::uint32_t i = 0; i < 3; ++i) {
            if (rng.below(4) == 0) {
              ids.push_back(static_cast<std::uint32_t>(c * 100 + d * 3 + i));
            }
          }
          for (std::size_t i = ids.size(); i > 1; --i) {
            std::swap(ids[i - 1], ids[rng.below(i)]);
          }
          for (const std::uint32_t id : ids) {
            per_query[q].push_back({q, {id, static_cast<std::uint32_t>(d)}});
          }
        }
      }
      Pass pass;
      std::vector<std::size_t> next(queries, 0);
      for (bool more = true; more;) {
        more = false;
        for (std::size_t q = 0; q < queries; ++q) {
          if (next[q] < per_query[q].size()) {
            pass.push_back(per_query[q][next[q]++]);
            more = true;
          }
        }
      }
      feed(lists, ref, pass);
      for (std::size_t q = 0; q < queries; ++q) {
        expect_bounds(lists, ref, q);
      }
    }
    if (passes > 1 && rng.below(2) == 0) {
      lists.drop_ids(100, 200);
      ref.drop_ids(100, 200);
    }
    for (std::size_t q = 0; q < queries; ++q) {
      ASSERT_EQ(lists.take(q), ref.answer(q)) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace apss::core
