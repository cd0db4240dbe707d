// Cycle-by-cycle validation of the paper's Fig. 3 execution example:
// vector {1,0,1,1}, query {1,0,0,1}, d=4. Every row of the figure is
// asserted: which states are active at each time step and the counter value.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "apsim/simulator.hpp"
#include "core/hamming_macro.hpp"
#include "core/stream.hpp"

namespace apss::core {
namespace {

struct Recorder : apsim::TraceSink {
  struct Snapshot {
    std::uint8_t symbol = 0;
    std::set<anml::ElementId> active;
    std::uint64_t counter_after = 0;  ///< count at END of the cycle
  };
  std::map<std::uint64_t, Snapshot> cycles;
  anml::ElementId counter_id = anml::kInvalidElement;

  void on_cycle(std::uint64_t cycle, std::uint8_t symbol,
                std::span<const anml::ElementId> active,
                const apsim::Simulator& sim) override {
    Snapshot snap;
    snap.symbol = symbol;
    snap.active.insert(active.begin(), active.end());
    snap.counter_after = sim.counter_value(counter_id);
    cycles[cycle] = snap;
  }
};

class Fig3Trace : public ::testing::Test {
 protected:
  void SetUp() override {
    layout_ = append_hamming_macro(net_, util::BitVector::parse("1011"), 0);
    sim_ = std::make_unique<apsim::Simulator>(net_);
    recorder_.counter_id = layout_.counter;
    sim_->set_trace(&recorder_);
    const SymbolStreamEncoder encoder(
        StreamSpec{4, layout_.collector_levels});
    events_ = sim_->run(encoder.encode_query(util::BitVector::parse("1001")));
  }

  bool active(std::uint64_t cycle, anml::ElementId id) const {
    return recorder_.cycles.at(cycle).active.count(id) > 0;
  }
  std::uint64_t count_after(std::uint64_t cycle) const {
    return recorder_.cycles.at(cycle).counter_after;
  }

  anml::AutomataNetwork net_;
  MacroLayout layout_;
  std::unique_ptr<apsim::Simulator> sim_;
  Recorder recorder_;
  std::vector<apsim::ReportEvent> events_;
};

TEST_F(Fig3Trace, T1_SofActivatesGuard) {
  EXPECT_TRUE(active(1, layout_.guard));
  EXPECT_EQ(count_after(1), 0u);
}

TEST_F(Fig3Trace, T2_Dim0Matches) {
  // Vector[0] = Query[0] = 1: chain and matching state both fire.
  EXPECT_TRUE(active(2, layout_.chain[0]));
  EXPECT_TRUE(active(2, layout_.match[0]));
  EXPECT_EQ(count_after(2), 0u);  // collector lags one cycle
}

TEST_F(Fig3Trace, T3_Dim1MatchesAndCollectorFlushesDim0) {
  EXPECT_TRUE(active(3, layout_.match[1]));
  EXPECT_TRUE(active(3, layout_.collectors[0]));
  EXPECT_EQ(count_after(3), 1u);  // dim-0 match banked
}

TEST_F(Fig3Trace, T4_Dim2Mismatch) {
  // Vector[2]=1, Query[2]=0: matching state idle.
  EXPECT_FALSE(active(4, layout_.match[2]));
  EXPECT_TRUE(active(4, layout_.chain[2]));
  EXPECT_EQ(count_after(4), 2u);  // dim-1 match banked
}

TEST_F(Fig3Trace, T5_Dim3Matches) {
  EXPECT_TRUE(active(5, layout_.match[3]));
  EXPECT_EQ(count_after(5), 2u);
}

TEST_F(Fig3Trace, T6_FlushRemainingCollectorActivations) {
  // Paper t=6: "Flush remaining collector state activations to counter".
  EXPECT_TRUE(active(6, layout_.collectors[0]));
  EXPECT_EQ(count_after(6), 3u);  // inverted Hamming distance = 3
  EXPECT_FALSE(active(6, layout_.sort_state));
}

TEST_F(Fig3Trace, T7_TemporalSortBegins) {
  // Paper t=7: "Inverted Hamming distance is 3, begin temporal sorting".
  EXPECT_TRUE(active(7, layout_.sort_state));
  EXPECT_EQ(count_after(7), 4u);  // crosses threshold at END of t=7
}

TEST_F(Fig3Trace, T8_CounterEmitsPulse) {
  // Paper: "The counter activates at time step t=8 and emits a single
  // activation pulse to the reporting state".
  EXPECT_TRUE(active(8, layout_.counter));
  EXPECT_FALSE(active(7, layout_.counter));
  EXPECT_FALSE(active(9, layout_.counter));
}

TEST_F(Fig3Trace, T9_ReportingStateFires) {
  EXPECT_TRUE(active(9, layout_.report));
  ASSERT_EQ(events_.size(), 1u);
  EXPECT_EQ(events_[0].cycle, 9u);
}

TEST_F(Fig3Trace, SortStateActiveThroughFillPhase) {
  for (std::uint64_t t = 7; t <= 11; ++t) {
    EXPECT_TRUE(active(t, layout_.sort_state)) << "t=" << t;
  }
  EXPECT_FALSE(active(12, layout_.sort_state));  // EOF breaks the self-loop
}

TEST_F(Fig3Trace, T12_EofResetsCounterForNextQuery) {
  EXPECT_TRUE(active(12, layout_.eof_state));
  EXPECT_EQ(count_after(12), 0u);
  // Count just before the reset kept climbing past the threshold.
  EXPECT_EQ(count_after(11), 8u);
}

TEST_F(Fig3Trace, CounterValuesMatchFig3Row) {
  // Count at the END of each cycle t=1..12 (the paper displays the value at
  // the START of the next step): 0 0 1 2 2 3 4 5 6 7 8 0.
  const std::vector<std::uint64_t> expected = {0, 0, 1, 2, 2, 3,
                                               4, 5, 6, 7, 8, 0};
  for (std::uint64_t t = 1; t <= 12; ++t) {
    EXPECT_EQ(count_after(t), expected[t - 1]) << "t=" << t;
  }
}

}  // namespace
}  // namespace apss::core
