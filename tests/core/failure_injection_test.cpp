// Failure injection: corrupted symbol streams, malformed inputs, and
// protocol violations must either produce detectable decode errors or
// well-defined degraded behaviour — never silently wrong neighbors.

#include <gtest/gtest.h>

#include "anml/anml_io.hpp"
#include "apsim/simulator.hpp"
#include "core/hamming_macro.hpp"
#include "core/stream.hpp"
#include "core/temporal_decode.hpp"
#include "util/rng.hpp"

namespace apss::core {
namespace {

struct Rig {
  anml::AutomataNetwork net;
  MacroLayout layout;
  StreamSpec spec;

  Rig() {
    layout = append_hamming_macro(net, util::BitVector::parse("10110010"), 0);
    spec = StreamSpec{8, layout.collector_levels};
  }
  std::vector<apsim::ReportEvent> run(std::vector<std::uint8_t> stream) {
    apsim::Simulator sim(net);
    return sim.run(stream);
  }
  std::vector<std::uint8_t> good_stream() {
    return SymbolStreamEncoder(spec).encode_query(
        util::BitVector::parse("10110010"));
  }
};

TEST(FailureInjection, MissingSofYieldsNoReports) {
  Rig rig;
  auto stream = rig.good_stream();
  stream[0] = Alphabet::kFill;  // clobber SOF
  EXPECT_TRUE(rig.run(stream).empty());
}

TEST(FailureInjection, TruncatedFillPhaseShiftsOrSuppressesReports) {
  Rig rig;
  auto stream = rig.good_stream();
  stream.resize(stream.size() - 4);  // drop 3 fills + EOF
  const auto events = rig.run(stream);
  // An exact-match query reports before the cut; the decoder still maps
  // it correctly. But the counter was never reset...
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(rig.spec.distance_from_offset(events[0].cycle), 0u);
  // ...so a SECOND frame after the truncated one is SUPPRESSED (the dirty
  // counter never re-crosses its threshold): queries after the corruption
  // lose their reports rather than returning wrong neighbors.
  auto corrupted = rig.good_stream();
  corrupted.resize(corrupted.size() - 4);
  const auto good = rig.good_stream();
  corrupted.insert(corrupted.end(), good.begin(), good.end());
  apsim::Simulator sim(rig.net);
  const auto all_events = sim.run(corrupted);
  bool second_frame_report = false;
  for (const auto& e : all_events) {
    second_frame_report |= e.cycle > corrupted.size() - rig.good_stream().size();
  }
  EXPECT_FALSE(second_frame_report)
      << "a frame after a truncated one must not report (missing beats wrong)";
}

TEST(FailureInjection, MissingEofLeavesCounterDirty) {
  Rig rig;
  auto stream = rig.good_stream();
  stream.back() = Alphabet::kFill;  // EOF never arrives
  apsim::Simulator sim(rig.net);
  sim.run(stream);
  EXPECT_GT(sim.counter_value(rig.layout.counter), 0u)
      << "without EOF the inverted-Hamming counter must stay dirty";
}

TEST(FailureInjection, DataSymbolsInFillPhaseDoNotCorruptTheSort) {
  // The sort state matches ^EOF, so stray DATA symbols during the fill
  // phase still increment uniformly — the design is robust to a host that
  // pads with garbage instead of the canonical FILL (Sec. III-B's only
  // requirement is "not EOF").
  Rig rig;
  auto stream = rig.good_stream();
  for (std::size_t i = 10; i < stream.size() - 1; ++i) {
    if (stream[i] == Alphabet::kFill) {
      stream[i] = Alphabet::data_bit(i % 2 == 0);
    }
  }
  const auto events = rig.run(stream);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(rig.spec.distance_from_offset(events[0].cycle), 0u);
}

TEST(FailureInjection, DoubleSofRestartsTheFrame) {
  // A spurious SOF mid-frame re-triggers the guard; the encoded vector
  // matches the tail of the corrupted frame, producing a bogus (but
  // in-window) second activation path. The decoder cannot detect this —
  // stream integrity is the host's job — but the simulation must not
  // produce out-of-range distances.
  Rig rig;
  auto stream = rig.good_stream();
  stream[3] = Alphabet::kSof;
  const auto events = rig.run(stream);
  for (const auto& e : events) {
    EXPECT_NO_THROW(rig.spec.distance_from_offset(e.cycle));
  }
}

TEST(FailureInjection, DecoderRejectsForeignEvents) {
  const StreamSpec spec{8, 1};
  const TemporalSortDecoder decoder(spec, 1);
  // Cycle 0 is impossible.
  EXPECT_THROW(decoder.decode_event({0, 0, 0}), std::out_of_range);
  // Compute-phase cycles are outside the sort window.
  EXPECT_THROW(decoder.decode_event({4, 0, 0}), std::out_of_range);
  // Beyond the declared query count.
  EXPECT_THROW(decoder.decode_event({100, 0, 0}), std::out_of_range);
}

TEST(FailureInjection, AnmlParserSurvivesGarbage) {
  util::Rng rng(31337);
  const std::string alphabet =
      "<>/=\"' abcdefXYZ0123-_&;\n\tautomatanetworkstate";
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage;
    const std::size_t len = rng.below(120);
    for (std::size_t i = 0; i < len; ++i) {
      garbage += alphabet[rng.below(alphabet.size())];
    }
    try {
      (void)anml::from_anml(garbage);  // may succeed on trivial inputs
    } catch (const std::exception&) {
      // Throwing is fine; crashing/UB is not (ASan-clean by construction).
    }
  }
  SUCCEED();
}

TEST(FailureInjection, SimulatorHandlesAllSymbolValues) {
  // Every possible byte, including control-flagged ones, must be safely
  // consumable even by networks that never match them.
  Rig rig;
  apsim::Simulator sim(rig.net);
  std::vector<std::uint8_t> everything(256);
  for (int s = 0; s < 256; ++s) {
    everything[s] = static_cast<std::uint8_t>(s);
  }
  EXPECT_NO_THROW(sim.run(everything));
}

}  // namespace
}  // namespace apss::core
