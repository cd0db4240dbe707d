#include "core/hamming_macro.hpp"

#include <gtest/gtest.h>

#include "apsim/simulator.hpp"
#include "apss_test_support.hpp"
#include "core/stream.hpp"
#include "util/rng.hpp"

namespace apss::core {
namespace {

using test::random_bitvector;
using test::run_hamming_query;
using util::BitVector;

TEST(HammingMacro, StructureCountsForD4) {
  anml::AutomataNetwork net;
  const MacroLayout layout =
      append_hamming_macro(net, BitVector::parse("1011"), 0);
  EXPECT_EQ(layout.chain.size(), 4u);
  EXPECT_EQ(layout.match.size(), 4u);
  EXPECT_EQ(layout.collectors.size(), 1u);
  EXPECT_EQ(layout.collector_levels, 1u);
  EXPECT_EQ(layout.bridge.size(), 1u);
  // guard + 4 chain + 4 match + 1 collector + 1 bridge + sort + eof + report
  const anml::NetworkStats s = net.stats();
  EXPECT_EQ(s.ste_count, 14u);
  EXPECT_EQ(s.counter_count, 1u);
  EXPECT_EQ(s.reporting_count, 1u);
  EXPECT_EQ(s.start_count, 1u);
  EXPECT_TRUE(net.validate().empty());
}

TEST(HammingMacro, CounterThresholdEqualsDims) {
  anml::AutomataNetwork net;
  const MacroLayout layout =
      append_hamming_macro(net, BitVector::parse("10110100"), 3);
  EXPECT_EQ(net.element(layout.counter).threshold, 8u);
  EXPECT_EQ(net.element(layout.report).report_code, 3u);
}

TEST(HammingMacro, SteCountFormula) {
  // STEs = 1 guard + 2d compute + collectors + L bridge + sort + eof + report.
  for (const std::size_t d : {16u, 64u, 128u, 256u}) {
    anml::AutomataNetwork net;
    BitVector v(d);
    const MacroLayout layout = append_hamming_macro(net, v, 0);
    const std::size_t collectors = layout.collectors.size();
    EXPECT_EQ(net.stats().ste_count,
              1 + 2 * d + collectors + layout.collector_levels + 3);
    EXPECT_EQ(collectors, (d + 15) / 16);  // default fan-in 16, one level
  }
}

TEST(HammingMacro, CollectorTreeDepthGrowsWhenFanInTight) {
  HammingMacroOptions opt;
  opt.collector_fan_in = 4;
  opt.max_counter_fan_in = 4;
  // d=64: level 1 -> 16 roots (+1 sort > 4) -> level 2 -> 4 roots (+1 > 4)
  // -> level 3 -> 1 root (+1 <= 4): L = 3.
  EXPECT_EQ(collector_levels_for(64, opt), 3u);
  anml::AutomataNetwork net;
  const MacroLayout layout = append_hamming_macro(net, BitVector(64), 0, opt);
  EXPECT_EQ(layout.collector_levels, 3u);
  EXPECT_EQ(layout.collectors.size(), 16u + 4u + 1u);
  EXPECT_EQ(layout.bridge.size(), 3u);
  EXPECT_TRUE(net.validate().empty());
}

TEST(HammingMacro, RejectsBadOptions) {
  anml::AutomataNetwork net;
  EXPECT_THROW(append_hamming_macro(net, BitVector(0), 0),
               std::invalid_argument);
  HammingMacroOptions bad_slice;
  bad_slice.bit_slice = 7;
  EXPECT_THROW(append_hamming_macro(net, BitVector(4), 0, bad_slice),
               std::invalid_argument);
}

TEST(HammingMacroExecution, PaperFig3Example) {
  // Vector {1,0,1,1}, query {1,0,0,1}: inverted Hamming distance 3,
  // report at cycle 2d+L+3-h = 12-3 = 9 (paper: t=9).
  const auto events =
      run_hamming_query(BitVector::parse("1011"), BitVector::parse("1001"));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].cycle, 9u);
}

TEST(HammingMacroExecution, PaperFig4BothVectors) {
  // A={1,0,1,1} reports at t=9; B={0,0,0,0} (h=2) at t=10.
  const BitVector query = BitVector::parse("1001");
  const auto a = run_hamming_query(BitVector::parse("1011"), query);
  const auto b = run_hamming_query(BitVector::parse("0000"), query);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].cycle, 9u);
  EXPECT_EQ(b[0].cycle, 10u);
}

TEST(HammingMacroExecution, ExactMatchAndWorstCaseOffsets) {
  const StreamSpec spec{8, 1};
  // h = d (identical): earliest report.
  const BitVector v = BitVector::parse("10110100");
  const auto hit = run_hamming_query(v, v);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].cycle, spec.report_offset(8));
  // h = 0 (complement): latest report, at the EOF cycle.
  const BitVector comp = BitVector::parse("01001011");
  const auto miss = run_hamming_query(v, comp);
  ASSERT_EQ(miss.size(), 1u);
  EXPECT_EQ(miss[0].cycle, spec.cycles_per_query());
  EXPECT_EQ(spec.distance_from_offset(miss[0].cycle), 8u);
}

TEST(HammingMacroExecution, ReportOffsetEncodesDistanceProperty) {
  util::Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t d = 1 + rng.below(96);
    const BitVector vec = random_bitvector(rng, d);
    const BitVector query = random_bitvector(rng, d);
    const auto events = run_hamming_query(vec, query);
    ASSERT_EQ(events.size(), 1u) << "d=" << d;
    const StreamSpec spec{d, 1};
    const std::size_t expected_h = d - util::hamming_distance(vec, query);
    EXPECT_EQ(events[0].cycle, spec.report_offset(expected_h)) << "d=" << d;
    EXPECT_EQ(spec.distance_from_offset(events[0].cycle),
              util::hamming_distance(vec, query));
  }
}

TEST(HammingMacroExecution, DeepCollectorTreeStillCorrect) {
  util::Rng rng(78);
  HammingMacroOptions opt;
  opt.collector_fan_in = 4;
  opt.max_counter_fan_in = 4;
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t d = 32 + rng.below(64);
    const BitVector vec = random_bitvector(rng, d);
    const BitVector query = random_bitvector(rng, d);
    anml::AutomataNetwork net;
    const MacroLayout layout = append_hamming_macro(net, vec, 0, opt);
    ASSERT_GT(layout.collector_levels, 1u);
    apsim::Simulator sim(net);
    const StreamSpec spec{d, layout.collector_levels};
    const SymbolStreamEncoder encoder(spec);
    const auto events = sim.run(encoder.encode_query(query));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(spec.distance_from_offset(events[0].cycle),
              util::hamming_distance(vec, query));
  }
}

TEST(HammingMacroExecution, BackToBackQueriesAreIndependent) {
  const BitVector vec = BitVector::parse("110100101100");
  anml::AutomataNetwork net;
  const MacroLayout layout = append_hamming_macro(net, vec, 0);
  const StreamSpec spec{vec.size(), layout.collector_levels};
  const SymbolStreamEncoder encoder(spec);

  util::Rng rng(79);
  const knn::BinaryDataset queries = test::random_dataset(rng, 5, vec.size());
  apsim::Simulator sim(net);
  const auto events = sim.run(encoder.encode_batch(queries));
  ASSERT_EQ(events.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::size_t offset = events[q].cycle - q * spec.cycles_per_query();
    EXPECT_EQ(spec.distance_from_offset(offset),
              util::hamming_distance(vec, queries.vector(q)))
        << "query " << q;
  }
}

}  // namespace
}  // namespace apss::core
