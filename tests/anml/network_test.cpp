#include "anml/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace apss::anml {
namespace {

AutomataNetwork small_chain() {
  AutomataNetwork net("chain");
  const ElementId a = net.add_ste(SymbolSet::single('a'), StartKind::kAllInput);
  const ElementId b = net.add_ste(SymbolSet::single('b'));
  const ElementId c = net.add_reporting_ste(SymbolSet::all(), 7);
  net.connect(a, b);
  net.connect(b, c);
  return net;
}

TEST(AutomataNetwork, BuildAndStats) {
  AutomataNetwork net = small_chain();
  const ElementId counter = net.add_counter(4);
  const ElementId gate = net.add_boolean(BooleanOp::kOr);
  net.connect(0, counter, CounterPort::kCountEnable);
  net.connect(1, gate);

  const NetworkStats s = net.stats();
  EXPECT_EQ(s.ste_count, 3u);
  EXPECT_EQ(s.counter_count, 1u);
  EXPECT_EQ(s.boolean_count, 1u);
  EXPECT_EQ(s.reporting_count, 1u);
  EXPECT_EQ(s.start_count, 1u);
  EXPECT_EQ(s.edge_count, 4u);
  EXPECT_EQ(s.max_fan_out, 2u);  // element 0 and 1 both have fan-out 2
  EXPECT_EQ(s.max_fan_in, 1u);
}

TEST(AutomataNetwork, FanInFanOut) {
  AutomataNetwork net = small_chain();
  EXPECT_EQ(net.fan_out(0), 1u);
  EXPECT_EQ(net.fan_in(1), 1u);
  EXPECT_EQ(net.fan_in(0), 0u);
}

TEST(AutomataNetwork, ConnectRejectsBadIds) {
  AutomataNetwork net = small_chain();
  EXPECT_THROW(net.connect(0, 99), std::out_of_range);
  EXPECT_THROW(net.connect(99, 0), std::out_of_range);
}

TEST(AutomataNetwork, ComponentsCountsIslands) {
  AutomataNetwork net = small_chain();  // one component of 3
  net.add_ste(SymbolSet::all());        // isolated
  AutomataNetwork other = small_chain();
  net.merge(other);  // second chain island

  std::vector<std::uint32_t> labels;
  const std::size_t n = net.components(labels);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(labels.size(), 7u);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(labels[4], labels[5]);
  EXPECT_NE(labels[3], labels[4]);
}

TEST(AutomataNetwork, MergeOffsetsIds) {
  AutomataNetwork net = small_chain();
  AutomataNetwork other = small_chain();
  const ElementId offset = net.merge(other);
  EXPECT_EQ(offset, 3u);
  EXPECT_EQ(net.size(), 6u);
  // The merged chain's edges reference offset ids.
  EXPECT_EQ(net.fan_in(offset + 1), 1u);
  const auto into = std::find_if(
      net.edges().begin(), net.edges().end(),
      [&](const Edge& e) { return e.to == offset + 1; });
  ASSERT_NE(into, net.edges().end());
  EXPECT_EQ(into->from, offset);
}

TEST(AutomataNetworkValidate, AcceptsWellFormed) {
  AutomataNetwork net = small_chain();
  EXPECT_TRUE(net.validate().empty());
}

TEST(AutomataNetworkValidate, RejectsEmptySymbolClass) {
  AutomataNetwork net;
  net.add_ste(SymbolSet());
  EXPECT_FALSE(net.validate().empty());
}

TEST(AutomataNetworkValidate, RejectsZeroThresholdCounter) {
  AutomataNetwork net;
  net.add_counter(0);
  EXPECT_FALSE(net.validate().empty());
}

TEST(AutomataNetworkValidate, RejectsInputlessBoolean) {
  AutomataNetwork net;
  net.add_boolean(BooleanOp::kAnd);
  EXPECT_FALSE(net.validate().empty());
}

TEST(AutomataNetworkValidate, RejectsMultiInputNot) {
  AutomataNetwork net;
  const ElementId a = net.add_ste(SymbolSet::all(), StartKind::kAllInput);
  const ElementId b = net.add_ste(SymbolSet::all(), StartKind::kAllInput);
  const ElementId gate = net.add_boolean(BooleanOp::kNot);
  net.connect(a, gate);
  net.connect(b, gate);
  EXPECT_FALSE(net.validate().empty());
}

TEST(AutomataNetworkValidate, RejectsCounterPortOnSte) {
  AutomataNetwork net;
  const ElementId a = net.add_ste(SymbolSet::all(), StartKind::kAllInput);
  const ElementId b = net.add_ste(SymbolSet::all());
  net.connect(a, b, CounterPort::kReset);
  EXPECT_FALSE(net.validate().empty());
}

TEST(AutomataNetworkValidate, DynamicThresholdGated) {
  AutomataNetwork net;
  const ElementId a = net.add_counter(4);
  const ElementId b = net.add_counter(4);
  net.connect(a, b, CounterPort::kThreshold);
  EXPECT_FALSE(net.validate(false).empty());
  EXPECT_TRUE(net.validate(true).empty());
}

TEST(AutomataNetworkValidate, DynamicThresholdSourceMustBeCounter) {
  AutomataNetwork net;
  const ElementId a = net.add_ste(SymbolSet::all(), StartKind::kAllInput);
  const ElementId b = net.add_counter(4);
  net.connect(a, b, CounterPort::kThreshold);
  EXPECT_FALSE(net.validate(true).empty());
}

TEST(AutomataNetworkValidate, RejectsBooleanCycle) {
  AutomataNetwork net;
  const ElementId src = net.add_ste(SymbolSet::all(), StartKind::kAllInput);
  const ElementId g1 = net.add_boolean(BooleanOp::kOr);
  const ElementId g2 = net.add_boolean(BooleanOp::kOr);
  net.connect(src, g1);
  net.connect(g1, g2);
  net.connect(g2, g1);  // combinational loop
  EXPECT_FALSE(net.validate().empty());
}

TEST(AutomataNetworkValidate, BooleanCycleThroughSteIsFine) {
  AutomataNetwork net;
  const ElementId src = net.add_ste(SymbolSet::all(), StartKind::kAllInput);
  const ElementId g1 = net.add_boolean(BooleanOp::kOr);
  const ElementId ste = net.add_ste(SymbolSet::all());
  net.connect(src, g1);
  net.connect(g1, ste);
  net.connect(ste, g1);  // loop broken by a clocked element
  EXPECT_TRUE(net.validate().empty());
}

}  // namespace
}  // namespace apss::anml
