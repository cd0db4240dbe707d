#include "core/stream.hpp"

#include <gtest/gtest.h>

#include "core/temporal_decode.hpp"

namespace apss::core {
namespace {

TEST(StreamSpec, FrameArithmetic) {
  const StreamSpec spec{4, 1};
  EXPECT_EQ(spec.fill_symbols(), 6u);
  EXPECT_EQ(spec.cycles_per_query(), 12u);  // matches the paper's Fig. 3
  EXPECT_EQ(spec.report_offset(3), 9u);     // h=3 reports at t=9
  EXPECT_EQ(spec.report_offset(0), 12u);
  EXPECT_EQ(spec.distance_from_offset(9), 1u);
  EXPECT_EQ(spec.distance_from_offset(8), 0u);   // h=d
  EXPECT_EQ(spec.distance_from_offset(12), 4u);  // h=0
}

TEST(StreamSpec, RejectsOffsetsOutsideSortWindow) {
  const StreamSpec spec{4, 1};
  EXPECT_THROW(spec.distance_from_offset(7), std::out_of_range);
  EXPECT_THROW(spec.distance_from_offset(13), std::out_of_range);
}

TEST(SymbolStreamEncoder, EncodesPaperFig3Stream) {
  const StreamSpec spec{4, 1};
  const SymbolStreamEncoder enc(spec);
  const auto stream = enc.encode_query(util::BitVector::parse("1001"));
  ASSERT_EQ(stream.size(), 12u);
  EXPECT_EQ(stream[0], Alphabet::kSof);
  EXPECT_EQ(stream[1], Alphabet::data_bit(true));
  EXPECT_EQ(stream[2], Alphabet::data_bit(false));
  EXPECT_EQ(stream[3], Alphabet::data_bit(false));
  EXPECT_EQ(stream[4], Alphabet::data_bit(true));
  for (std::size_t i = 5; i < 11; ++i) {
    EXPECT_EQ(stream[i], Alphabet::kFill) << i;
  }
  EXPECT_EQ(stream[11], Alphabet::kEof);
}

TEST(SymbolStreamEncoder, BatchConcatenatesFrames) {
  const StreamSpec spec{8, 1};
  const SymbolStreamEncoder enc(spec);
  const knn::BinaryDataset queries = knn::BinaryDataset::uniform(3, 8, 5);
  const auto stream = enc.encode_batch(queries);
  ASSERT_EQ(stream.size(), 3 * spec.cycles_per_query());
  for (std::size_t q = 0; q < 3; ++q) {
    const std::size_t base = q * spec.cycles_per_query();
    EXPECT_EQ(stream[base], Alphabet::kSof);
    EXPECT_EQ(stream[base + spec.cycles_per_query() - 1], Alphabet::kEof);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(stream[base + 1 + i],
                Alphabet::data_bit(queries.get(q, i)));
    }
  }
}

TEST(SymbolStreamEncoder, RejectsDimsMismatch) {
  const SymbolStreamEncoder enc(StreamSpec{8, 1});
  EXPECT_THROW(enc.encode_query(util::BitVector(4)), std::invalid_argument);
  EXPECT_THROW(enc.encode_batch(knn::BinaryDataset(2, 4)),
               std::invalid_argument);
}

TEST(SymbolStreamEncoder, EmptyBatchProducesEmptyStream) {
  const SymbolStreamEncoder enc(StreamSpec{4, 1});
  EXPECT_TRUE(enc.encode_batch(knn::BinaryDataset(0, 4)).empty());
}

TEST(StreamSpec, SingleDimensionFrame) {
  // d=1 is the smallest legal frame: SOF + 1 data + 3 fill + EOF.
  const StreamSpec spec{1, 1};
  EXPECT_EQ(spec.fill_symbols(), 3u);
  EXPECT_EQ(spec.cycles_per_query(), 6u);
  EXPECT_EQ(spec.report_offset(1), 5u);  // exact match (h = d)
  EXPECT_EQ(spec.report_offset(0), 6u);  // total miss (h = 0)
  EXPECT_EQ(spec.distance_from_offset(5), 0u);
  EXPECT_EQ(spec.distance_from_offset(6), 1u);
  EXPECT_THROW(spec.distance_from_offset(4), std::out_of_range);
}

TEST(SymbolStreamEncoder, SingleSymbolQueryFrames) {
  const SymbolStreamEncoder enc(StreamSpec{1, 1});
  for (const bool bit : {false, true}) {
    util::BitVector q(1);
    q.set(0, bit);
    const auto stream = enc.encode_query(q);
    ASSERT_EQ(stream.size(), 6u);
    EXPECT_EQ(stream[0], Alphabet::kSof);
    EXPECT_EQ(stream[1], Alphabet::data_bit(bit));
    EXPECT_EQ(stream[2], Alphabet::kFill);
    EXPECT_EQ(stream[3], Alphabet::kFill);
    EXPECT_EQ(stream[4], Alphabet::kFill);
    EXPECT_EQ(stream[5], Alphabet::kEof);
  }
}

TEST(TemporalSortDecoder, EmptyEventsDecodeToEmptyListsPerQuery) {
  const TemporalSortDecoder decoder(StreamSpec{4, 1}, 2);
  const auto result = decoder.decode({});
  ASSERT_EQ(result.size(), 2u);  // one list per query, even with no events
  EXPECT_TRUE(result[0].empty());
  EXPECT_TRUE(result[1].empty());
}

TEST(Alphabet, ControlSymbolsAreFlagged) {
  EXPECT_TRUE(Alphabet::is_control(Alphabet::kSof));
  EXPECT_TRUE(Alphabet::is_control(Alphabet::kEof));
  EXPECT_TRUE(Alphabet::is_control(Alphabet::kFill));
  EXPECT_FALSE(Alphabet::is_control(Alphabet::data_bit(false)));
  EXPECT_FALSE(Alphabet::is_control(Alphabet::data_bit(true)));
  EXPECT_FALSE(Alphabet::is_control(Alphabet::data(0x7f)));
}

TEST(TemporalSortDecoder, DecodesEventsToNeighbors) {
  const StreamSpec spec{4, 1};
  const TemporalSortDecoder decoder(spec, 2);
  // Query 0: id 7 at offset 9 (distance 1); id 3 at offset 12 (distance 4).
  // Query 1 (cycles 13..24): id 5 at offset 8+12=20 (distance 0).
  const std::vector<apsim::ReportEvent> events = {
      {9, 0, 7}, {12, 0, 3}, {20, 0, 5}};
  const auto result = decoder.decode(events);
  ASSERT_EQ(result.size(), 2u);
  ASSERT_EQ(result[0].size(), 2u);
  EXPECT_EQ(result[0][0], (knn::Neighbor{7, 1}));
  EXPECT_EQ(result[0][1], (knn::Neighbor{3, 4}));
  ASSERT_EQ(result[1].size(), 1u);
  EXPECT_EQ(result[1][0], (knn::Neighbor{5, 0}));
}

TEST(TemporalSortDecoder, TruncatesToK) {
  const StreamSpec spec{4, 1};
  const TemporalSortDecoder decoder(spec, 1);
  const std::vector<apsim::ReportEvent> events = {
      {8, 0, 1}, {9, 0, 2}, {10, 0, 3}};
  const auto result = decoder.decode(events, 2);
  ASSERT_EQ(result[0].size(), 2u);
  EXPECT_EQ(result[0][0].id, 1u);
  EXPECT_EQ(result[0][1].id, 2u);
}

TEST(TemporalSortDecoder, NormalizesTieOrderById) {
  const StreamSpec spec{4, 1};
  const TemporalSortDecoder decoder(spec, 1);
  // Two ids report on the same cycle (a distance tie), higher id first.
  const std::vector<apsim::ReportEvent> events = {{9, 1, 9}, {9, 0, 4}};
  const auto result = decoder.decode(events);
  ASSERT_EQ(result[0].size(), 2u);
  EXPECT_EQ(result[0][0].id, 4u);
  EXPECT_EQ(result[0][1].id, 9u);
}

TEST(TemporalSortDecoder, TieAtTheCutKeepsTheSmallestIds) {
  const StreamSpec spec{4, 1};
  const TemporalSortDecoder decoder(spec, 1);
  // A distance tie straddles the k-th slot and the higher id arrives first:
  // the cut must not depend on arrival order within the cycle.
  const std::vector<apsim::ReportEvent> events = {{9, 1, 9}, {9, 0, 4}};
  const auto result = decoder.decode(events, 1);
  ASSERT_EQ(result[0].size(), 1u);
  EXPECT_EQ(result[0][0], (knn::Neighbor{4, 1}));
  // Ties past the k-th slot's cycle are still cut: ids 4 and 9 share
  // distance 1, and the later id 2 at distance 2 never makes k = 2.
  const std::vector<apsim::ReportEvent> three = {
      {9, 1, 9}, {9, 0, 4}, {10, 0, 2}};
  EXPECT_EQ(decoder.decode(three, 2)[0],
            (std::vector<knn::Neighbor>{{4, 1}, {9, 1}}));
}

TEST(TemporalSortDecoder, RejectsOutOfWindowEvents) {
  const StreamSpec spec{4, 1};
  const TemporalSortDecoder decoder(spec, 1);
  const std::vector<apsim::ReportEvent> early = {{3, 0, 1}};
  EXPECT_THROW(decoder.decode(early), std::out_of_range);
  const std::vector<apsim::ReportEvent> beyond = {{25, 0, 1}};
  EXPECT_THROW(decoder.decode(beyond), std::out_of_range);
}

TEST(TemporalSortDecoder, DemultiplexesSlices) {
  // S = 3, four queries: frame 0 carries queries 0-2, frame 1 (cycles
  // 13..24) carries query 3 in slice 0 and stale slices 1-2.
  const StreamSpec spec{4, 1};
  const TemporalSortDecoder decoder(spec, 4, 3);
  const std::vector<apsim::ReportEvent> events = {
      {9, 0, 5 * 8 + 2},    // vector 5, slice 2 -> query 2, distance 1
      {9, 1, 7 * 8 + 0},    // vector 7, slice 0 -> query 0, distance 1
      {20, 2, 6 * 8 + 0},   // vector 6, slice 0 -> query 3, distance 0
      {20, 3, 6 * 8 + 1}};  // stale slice 1 of the partial frame: dropped
  const auto result = decoder.decode(events);
  ASSERT_EQ(result.size(), 4u);
  EXPECT_EQ(result[0], (std::vector<knn::Neighbor>{{7, 1}}));
  EXPECT_TRUE(result[1].empty());
  EXPECT_EQ(result[2], (std::vector<knn::Neighbor>{{5, 1}}));
  EXPECT_EQ(result[3], (std::vector<knn::Neighbor>{{6, 0}}));
  // A slice beyond S or an event beyond the last frame means a broken
  // design.
  const std::vector<apsim::ReportEvent> bad_slice = {{9, 0, 5 * 8 + 3}};
  EXPECT_THROW(decoder.decode(bad_slice), std::out_of_range);
  const std::vector<apsim::ReportEvent> beyond = {{32, 0, 5 * 8}};
  EXPECT_THROW(decoder.decode(beyond), std::out_of_range);
}

}  // namespace
}  // namespace apss::core
