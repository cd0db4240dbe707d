// Tests for the Sec. VII architectural extensions: counter-increment dense
// encoding, the dynamic-threshold comparison macro, and the STE
// decomposition analysis.

#include <gtest/gtest.h>

#include "apsim/simulator.hpp"
#include "apss_test_support.hpp"
#include "core/ext/comparison_macro.hpp"
#include "core/ext/counter_increment.hpp"
#include "core/ext/ste_decomposition.hpp"
#include "util/rng.hpp"

namespace apss::core {
namespace {

// --- Counter-increment extension ---------------------------------------------

TEST(CiStreamSpec, FrameShrinksByDimsPerSymbol) {
  const CiStreamSpec spec{128};
  EXPECT_EQ(spec.data_symbols(), 19u);  // ceil(128/7)
  EXPECT_EQ(spec.cycles_per_query(), 19u + 128u + 4u);
  // Base frame: 2*128+4 = 260 cycles; dense frame: 151.
  EXPECT_NEAR(spec.speedup_vs_base(), 260.0 / 151.0, 1e-12);
  EXPECT_GT(spec.speedup_vs_base(), 1.7);  // the paper's ~1.75x
}

TEST(CiMacro, UsesOneChainStatePerSymbolGroup) {
  anml::AutomataNetwork net;
  const auto layout = append_ci_macro(net, util::BitVector(21), 0);
  EXPECT_EQ(layout.chain.size(), 3u);  // 21 dims / 7 per symbol
  EXPECT_EQ(layout.match.size(), 21u);
  EXPECT_EQ(layout.slice_collectors.size(), 7u);
  EXPECT_TRUE(net.validate().empty());
}

TEST(CiMacro, RequiresMultiIncrementCounters) {
  // On stock hardware (increment cap 1) simultaneous per-slice matches
  // collapse and the counter undercounts -> wrong distances.
  const auto data = knn::BinaryDataset::uniform(1, 14, 800);
  anml::AutomataNetwork net;
  append_ci_macro(net, data.vector(0), 0);
  const auto stream = encode_ci_query(data.vector(0));  // exact match: h=14

  apsim::SimOptions stock;  // cap 1
  apsim::Simulator sim_stock(net, stock);
  const auto stock_events = sim_stock.run(stream);
  const CiStreamSpec spec{14};
  ASSERT_EQ(stock_events.size(), 1u);
  EXPECT_GT(spec.distance_from_offset(stock_events[0].cycle), 0u);  // WRONG

  apsim::SimOptions ext;
  ext.max_counter_increment = 8;
  apsim::Simulator sim_ext(net, ext);
  const auto ext_events = sim_ext.run(stream);
  ASSERT_EQ(ext_events.size(), 1u);
  EXPECT_EQ(spec.distance_from_offset(ext_events[0].cycle), 0u);  // exact
}

TEST(CiKnn, MatchesCpuExactProperty) {
  util::Rng rng(801);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 8 + rng.below(16);
    const std::size_t d = 7 + rng.below(40);
    const std::size_t k = 1 + rng.below(5);
    const auto data = knn::BinaryDataset::uniform(n, d, rng.next());
    const auto queries = knn::BinaryDataset::uniform(3, d, rng.next());
    const auto results = ci_knn_search(data, queries, k);
    test::expect_exact_knn_results(
        data, queries, k, results,
        "trial " + std::to_string(trial) + " d=" + std::to_string(d));
  }
}

TEST(CiKnn, NonMultipleOfSevenDims) {
  const auto data = knn::BinaryDataset::uniform(10, 13, 802);
  const auto queries = knn::BinaryDataset::uniform(4, 13, 803);
  const auto results = ci_knn_search(data, queries, 3);
  test::expect_exact_knn_results(data, queries, 3, results);
}

// --- Comparison macro (Fig. 8) -----------------------------------------------

struct CmpRig {
  anml::AutomataNetwork net;
  ComparisonLayout layout;
  CmpRig() {
    layout = append_comparison_macro(net, anml::SymbolSet::single('a'),
                                     anml::SymbolSet::single('b'),
                                     anml::SymbolSet::single('r'), 1);
  }
  std::vector<apsim::ReportEvent> run(const std::string& s) {
    apsim::SimOptions opt;
    opt.allow_dynamic_threshold = true;
    apsim::Simulator sim(net, opt);
    return sim.run(test::bytes(s));
  }
};

TEST(ComparisonMacro, FiresOnlyWhenAExceedsB) {
  CmpRig rig;
  // With a one-cycle threshold-sampling latency, A>B must HOLD for a cycle:
  // "aa" -> at end of cycle 2, A=2 vs B's previous count 0 -> fires.
  EXPECT_FALSE(rig.run("ab...").empty());
  EXPECT_TRUE(rig.run("babab").empty());   // A never exceeds B
  EXPECT_TRUE(rig.run(".....").empty());   // nothing counted
  EXPECT_FALSE(rig.run("bbaaa..").empty());  // A pulls ahead at the end
}

TEST(ComparisonMacro, ResetRearmsComparison) {
  CmpRig rig;
  // A wins, reset, then B stays ahead: exactly one report.
  const auto events = rig.run("aa..r.bb..");
  EXPECT_EQ(events.size(), 1u);
  // A wins twice across a reset: two reports.
  const auto twice = rig.run("aa..r.aa..");
  EXPECT_EQ(twice.size(), 2u);
}

TEST(ComparisonMacro, NeedsDynamicThresholdFeature) {
  CmpRig rig;
  EXPECT_THROW(apsim::Simulator sim(rig.net), std::invalid_argument);
}

// --- STE decomposition (Sec. VII-C, Table VII) -------------------------------

TEST(SteDecomposition, WidthHistogramForKnnMacro) {
  anml::AutomataNetwork net;
  append_hamming_macro(net, util::BitVector(64), 0);
  // Restricted alphabet: every state needs <= 3 bits.
  const auto analysis = analyze_ste_decomposition(net, knn_alphabet());
  EXPECT_EQ(analysis.total_stes, net.stats().ste_count);
  for (std::size_t w = 4; w <= 8; ++w) {
    EXPECT_EQ(analysis.width_histogram[w], 0u) << "w=" << w;
  }
  // The 64 matching states need 2 bits each.
  EXPECT_GE(analysis.width_histogram[2], 64u);
}

TEST(SteDecomposition, FullAlphabetHasWideControlStates) {
  anml::AutomataNetwork net;
  append_hamming_macro(net, util::BitVector(64), 0);
  const auto analysis =
      analyze_ste_decomposition(net, anml::SymbolSet::all());
  // guard (SOF exact), EOF exact, sort (^EOF) all need 8 bits.
  EXPECT_EQ(analysis.width_histogram[8], 3u);
}

TEST(SteDecomposition, SavingsApproachTheoreticalBound) {
  anml::AutomataNetwork net;
  append_hamming_macro(net, util::BitVector(128), 0);
  const auto analysis =
      analyze_ste_decomposition(net, anml::SymbolSet::all());
  double prev = 0.9;
  for (const std::size_t x : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const double s = analysis.savings(x);
    EXPECT_GT(s, prev) << "x=" << x;         // monotone in x
    EXPECT_LE(s, static_cast<double>(x) + 1e-9) << "x=" << x;  // bounded by x
    prev = s;
  }
  // Table VII regime at x=4: close to but below 4x.
  EXPECT_GT(analysis.savings(4), 3.5);
  EXPECT_LT(analysis.savings(32), 32.0);  // wide states keep it sub-theoretical
}

TEST(SteDecomposition, RestrictedAlphabetReachesTheoreticalBound) {
  anml::AutomataNetwork net;
  append_hamming_macro(net, util::BitVector(128), 0);
  const auto analysis = analyze_ste_decomposition(net, knn_alphabet());
  EXPECT_DOUBLE_EQ(analysis.savings(4), 4.0);
  EXPECT_DOUBLE_EQ(analysis.savings(32), 32.0);
}

TEST(SteDecomposition, RejectsNonPowerOfTwoFactor) {
  DecompositionAnalysis a;
  a.total_stes = 1;
  a.width_histogram[0] = 1;
  EXPECT_THROW(a.ste_cost(3), std::invalid_argument);
  EXPECT_THROW(a.ste_cost(0), std::invalid_argument);
  EXPECT_NO_THROW(a.ste_cost(4));
}

}  // namespace
}  // namespace apss::core
