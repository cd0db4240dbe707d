// Differential validation of the bit-parallel backend's second and third
// compiled shapes — vector-packed groups (Fig. 5 / Sec. VI-A) and
// stream-multiplexed slice replicas (Fig. 6 / Sec. VI-B) — against the
// cycle-accurate reference simulator: on supported configurations the two
// must produce BIT-IDENTICAL ReportEvent streams (same cycles, element
// ids, report codes, within-cycle order) on encoded query frames AND on
// adversarial random symbol streams. Near-miss configurations (permuted
// lanes, cross-group wiring, tampered counters, double-collected
// dimensions) must be declined so callers fall back.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apsim/batch_simulator.hpp"
#include "apsim/simulator.hpp"
#include "apss_test_support.hpp"
#include "core/batch_compile.hpp"
#include "core/design.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "core/opt/vector_packing.hpp"
#include "core/stream.hpp"
#include "knn/dataset.hpp"
#include "util/rng.hpp"

namespace apss::apsim {
namespace {

// --- Packed-shape fixtures ---------------------------------------------------

struct PackedConfig {
  anml::AutomataNetwork network;
  std::vector<core::PackedGroupLayout> layouts;
  core::StreamSpec spec;

  std::vector<PackedGroupSlots> slots() const {
    std::vector<PackedGroupSlots> s;
    s.reserve(layouts.size());
    for (const core::PackedGroupLayout& l : layouts) {
      s.push_back(core::packed_batch_slots(l));
    }
    return s;
  }
};

PackedConfig build_packed(const knn::BinaryDataset& data,
                          const core::VectorPackingOptions& opt) {
  PackedConfig c;
  c.layouts = core::build_packed_network(c.network, data, opt);
  c.spec = core::StreamSpec{data.dims(), c.layouts.front().collector_levels};
  return c;
}

std::shared_ptr<const BatchProgram> compile_packed_or_die(
    const PackedConfig& c, SimOptions options = {}) {
  std::string reason;
  const auto slots = c.slots();
  auto program = BatchProgram::try_compile(c.network, slots, options, &reason);
  if (program == nullptr) {
    throw std::runtime_error("packed try_compile declined: " + reason);
  }
  return program;
}

void expect_identical_packed(const PackedConfig& c,
                             std::span<const std::uint8_t> stream,
                             const std::string& context) {
  Simulator reference(c.network);
  BatchSimulator batch(compile_packed_or_die(c));
  const auto expected = reference.run(stream);
  const auto actual = batch.run(stream);
  ASSERT_EQ(actual, expected) << context;
}

// --- Multiplexed-shape fixtures ----------------------------------------------

struct MuxConfig {
  anml::AutomataNetwork network;
  std::vector<core::MacroLayout> layouts;
  core::StreamSpec spec;
  std::size_t slices = 1;

  std::vector<HammingMacroSlots> slots() const {
    std::vector<HammingMacroSlots> s;
    s.reserve(layouts.size());
    for (const core::MacroLayout& l : layouts) {
      s.push_back(core::batch_slots(l));
    }
    return s;
  }
};

MuxConfig build_mux(const knn::BinaryDataset& data, std::size_t slices,
                    const core::HammingMacroOptions& opt = {}) {
  MuxConfig c;
  c.slices = slices;
  c.layouts = core::build_multiplexed_network(c.network, data, slices, opt);
  c.spec = core::StreamSpec{data.dims(),
                            core::collector_levels_for(data.dims(), opt)};
  return c;
}

std::shared_ptr<const BatchProgram> compile_mux_or_die(const MuxConfig& c) {
  std::string reason;
  const auto slots = c.slots();
  auto program = BatchProgram::try_compile(c.network, slots, {}, &reason);
  if (program == nullptr) {
    throw std::runtime_error("mux try_compile declined: " + reason);
  }
  return program;
}

void expect_identical_mux(const MuxConfig& c,
                          std::span<const std::uint8_t> stream,
                          const std::string& context) {
  Simulator reference(c.network);
  BatchSimulator batch(compile_mux_or_die(c));
  const auto expected = reference.run(stream);
  const auto actual = batch.run(stream);
  ASSERT_EQ(actual, expected) << context;
}

// --- Packed differential sweeps ----------------------------------------------

TEST(BatchPackedDifferential, FlatEncodedQuerySweep) {
  util::Rng rng(9001);
  const std::size_t dims_grid[] = {1, 2, 5, 8, 16, 33, 64};
  const std::size_t group_grid[] = {1, 2, 4, 8};
  for (const std::size_t dims : dims_grid) {
    for (const std::size_t group : group_grid) {
      const auto data = test::random_dataset(rng, 3 + rng.below(18), dims);
      core::VectorPackingOptions opt;
      opt.group_size = group;
      opt.style = core::CollectorStyle::kFlat;
      const PackedConfig c = build_packed(data, opt);
      const core::SymbolStreamEncoder enc(c.spec);
      const auto queries = test::random_dataset(rng, 1 + rng.below(4), dims);
      expect_identical_packed(c, enc.encode_batch(queries),
                              "flat d=" + std::to_string(dims) +
                                  " g=" + std::to_string(group));
    }
  }
}

TEST(BatchPackedDifferential, TreeEncodedQuerySweep) {
  util::Rng rng(9002);
  core::VectorPackingOptions deep;
  deep.group_size = 5;
  deep.style = core::CollectorStyle::kTree;
  deep.macro.collector_fan_in = 2;
  deep.macro.max_counter_fan_in = 2;  // forces L = ceil(log2(dims)) levels
  core::VectorPackingOptions wide;
  wide.group_size = 8;
  wide.style = core::CollectorStyle::kTree;
  for (const auto& opt : {deep, wide}) {
    for (const std::size_t dims : {3u, 9u, 40u}) {
      const auto data = test::random_dataset(rng, 11, dims);
      const PackedConfig c = build_packed(data, opt);
      ASSERT_EQ(compile_packed_or_die(c)->collector_levels(),
                c.spec.collector_levels);
      const core::SymbolStreamEncoder enc(c.spec);
      const auto queries = test::random_dataset(rng, 3, dims);
      expect_identical_packed(c, enc.encode_batch(queries),
                              "tree d=" + std::to_string(dims));
    }
  }
}

TEST(BatchPackedDifferential, AdversarialRandomStreams) {
  // Raw random symbols: mid-stream SOFs relaunch the shared wavefront,
  // missing EOFs leave every lane's sort phase running, control symbols
  // hit the value states' don't-care logic. The backends must agree.
  util::Rng rng(9003);
  const std::uint8_t palette[] = {
      core::Alphabet::kSof,  core::Alphabet::kEof, core::Alphabet::kFill,
      core::Alphabet::data_bit(false), core::Alphabet::data_bit(true),
      0x7f, 0x00, 0xff};
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t dims = 1 + rng.below(20);
    core::VectorPackingOptions opt;
    opt.group_size = 1 + rng.below(7);
    opt.style = trial % 2 == 0 ? core::CollectorStyle::kFlat
                               : core::CollectorStyle::kTree;
    const auto data = test::random_dataset(rng, 1 + rng.below(40), dims);
    const PackedConfig c = build_packed(data, opt);
    std::vector<std::uint8_t> stream(8 + rng.below(6 * dims + 60));
    for (auto& s : stream) {
      s = palette[rng.below(std::size(palette))];
    }
    expect_identical_packed(c, stream, "trial " + std::to_string(trial));
  }
}

TEST(BatchPackedDifferential, CounterSaturationAndRunContinue) {
  // A fill phase far past the packed counters' bit-plane range saturates
  // them while the shared sort state keeps every lane incrementing; reports
  // must still agree, including across concatenated frames.
  util::Rng rng(9004);
  const std::size_t dims = 6;
  core::VectorPackingOptions opt;
  opt.group_size = 4;
  const auto data = test::random_dataset(rng, 10, dims);
  const PackedConfig c = build_packed(data, opt);
  std::vector<std::uint8_t> stream;
  stream.push_back(core::Alphabet::kSof);
  for (std::size_t i = 0; i < dims; ++i) {
    stream.push_back(core::Alphabet::data_bit(rng.bernoulli(0.5)));
  }
  stream.insert(stream.end(), 500, core::Alphabet::kFill);  // >> 2^planes
  stream.push_back(core::Alphabet::kEof);

  Simulator reference(c.network);
  BatchSimulator batch(compile_packed_or_die(c));
  ASSERT_EQ(batch.run(stream), reference.run(stream));
  const core::SymbolStreamEncoder enc(c.spec);
  for (int frame = 0; frame < 3; ++frame) {
    const auto tail = enc.encode_query(test::random_bitvector(rng, dims));
    ASSERT_EQ(batch.run_continue(tail), reference.run_continue(tail))
        << "frame " << frame;
  }
  ASSERT_EQ(batch.cycle(), reference.cycle());
}

TEST(BatchPackedProgram, CompilesTheEnginePackedFamily) {
  util::Rng rng(9005);
  const auto data = test::random_dataset(rng, 70, 16);
  core::VectorPackingOptions opt;
  opt.group_size = 8;
  const PackedConfig c = build_packed(data, opt);
  const auto program = compile_packed_or_die(c);
  EXPECT_EQ(program->macro_count(), 70u);  // lanes across 9 groups
  EXPECT_EQ(program->dims(), 16u);
  EXPECT_EQ(program->words(), 2u);
  EXPECT_LE(program->match_classes(), 2u);
  EXPECT_EQ(program->family(), MacroFamily::kPacked);
}

// --- Packed near-miss configurations must fall back --------------------------

TEST(BatchPackedProgram, RejectsGroupsOutOfCounterOrder) {
  util::Rng rng(9006);
  PackedConfig c = build_packed(test::random_dataset(rng, 12, 8),
                                core::VectorPackingOptions{.group_size = 4});
  std::swap(c.layouts[0], c.layouts[2]);
  std::string reason;
  const auto slots = c.slots();
  EXPECT_EQ(BatchProgram::try_compile(c.network, slots, {}, &reason), nullptr);
  EXPECT_NE(reason.find("counter creation order"), std::string::npos)
      << reason;
}

TEST(BatchPackedProgram, RejectsForeignElements) {
  util::Rng rng(9007);
  PackedConfig c = build_packed(test::random_dataset(rng, 8, 8),
                                core::VectorPackingOptions{.group_size = 4});
  c.network.add_ste(anml::SymbolSet::all());  // stray element
  std::string reason;
  const auto slots = c.slots();
  EXPECT_EQ(BatchProgram::try_compile(c.network, slots, {}, &reason), nullptr);
  EXPECT_NE(reason.find("outside the macro set"), std::string::npos) << reason;
}

TEST(BatchPackedProgram, RejectsTamperedThreshold) {
  util::Rng rng(9008);
  PackedConfig c = build_packed(test::random_dataset(rng, 8, 8),
                                core::VectorPackingOptions{.group_size = 4});
  c.network.element(c.layouts[0].counters[1]).threshold = 3;  // != dims
  std::string reason;
  const auto slots = c.slots();
  EXPECT_EQ(BatchProgram::try_compile(c.network, slots, {}, &reason), nullptr);
  EXPECT_NE(reason.find("threshold"), std::string::npos) << reason;
}

TEST(BatchPackedProgram, RejectsCrossGroupCollectorEdges) {
  util::Rng rng(9009);
  PackedConfig c = build_packed(test::random_dataset(rng, 8, 8),
                                core::VectorPackingOptions{.group_size = 4});
  // Wire a value state of group 1 into a collector of group 0.
  c.network.connect(c.layouts[1].value_states[0][0],
                    c.layouts[0].collectors[0][0]);
  std::string reason;
  const auto slots = c.slots();
  EXPECT_EQ(BatchProgram::try_compile(c.network, slots, {}, &reason), nullptr);
  EXPECT_NE(reason.find("crosses packed groups"), std::string::npos) << reason;
}

TEST(BatchPackedProgram, RejectsDoubleCollectedDimension) {
  // A lane that collects one dimension twice is not a Hamming lane, so the
  // compiler must refuse it on every shape. Plain (one slice) and
  // multiplexed macros, groups of one lane: the last matching state of
  // macro 1 also feeds that macro's first level-0 collector.
  util::Rng rng(9010);
  core::HammingMacroOptions deep;
  deep.collector_fan_in = 2;
  for (const std::size_t slices : {1u, 3u}) {
    MuxConfig c = build_mux(test::random_dataset(rng, 4, 8), slices, deep);
    const core::MacroLayout& m = c.layouts[1];
    c.network.connect(m.match.back(), m.collectors.front());
    std::string reason;
    const auto slots = c.slots();
    EXPECT_EQ(BatchProgram::try_compile(c.network, slots, {}, &reason),
              nullptr)
        << "slices=" << slices;
    EXPECT_NE(reason.find("lane collects a dimension more than once"),
              std::string::npos)
        << reason;
  }
  // Packed: find a dimension carrying two value states and feed BOTH into
  // lane 0's collector, so that lane would match it on every data symbol.
  for (int attempt = 0; attempt < 20; ++attempt) {
    PackedConfig c = build_packed(test::random_dataset(rng, 4, 8),
                                  core::VectorPackingOptions{.group_size = 4});
    const core::PackedGroupLayout& g = c.layouts[0];
    std::size_t two_dim = g.value_states.size();
    for (std::size_t i = 0; i < g.value_states.size(); ++i) {
      if (g.value_states[i].size() == 2) {
        two_dim = i;
        break;
      }
    }
    if (two_dim == g.value_states.size()) {
      continue;  // all four vectors agreed everywhere; resample
    }
    c.network.connect(g.value_states[two_dim][0], g.collectors[0][0]);
    c.network.connect(g.value_states[two_dim][1], g.collectors[0][0]);
    std::string reason;
    const auto slots = c.slots();
    EXPECT_EQ(BatchProgram::try_compile(c.network, slots, {}, &reason),
              nullptr);
    EXPECT_NE(reason.find("more than once"), std::string::npos) << reason;
    return;
  }
  FAIL() << "never sampled a dimension with two value states";
}

TEST(BatchPackedProgram, RejectsCounterIncrementCapAboveOne) {
  util::Rng rng(9011);
  const PackedConfig c = build_packed(
      test::random_dataset(rng, 8, 8), core::VectorPackingOptions{});
  SimOptions opt;
  opt.max_counter_increment = 8;
  std::string reason;
  const auto slots = c.slots();
  EXPECT_EQ(BatchProgram::try_compile(c.network, slots, opt, &reason),
            nullptr);
  EXPECT_NE(reason.find("max_counter_increment"), std::string::npos) << reason;
}

// --- Multiplexed differential sweeps -----------------------------------------

TEST(BatchMuxDifferential, EncodedFrameSweep) {
  util::Rng rng(9100);
  for (const std::size_t slices : {1u, 2u, 3u, 5u, 7u}) {
    for (const std::size_t dims : {1u, 4u, 12u, 33u}) {
      const auto data = test::random_dataset(rng, 1 + rng.below(12), dims);
      const MuxConfig c = build_mux(data, slices);
      const auto queries =
          test::random_dataset(rng, slices + rng.below(8), dims);
      const core::MultiplexedStreamEncoder enc(c.spec);
      std::size_t frames = 0;
      expect_identical_mux(c, enc.encode_batch(queries, frames),
                           "slices=" + std::to_string(slices) +
                               " d=" + std::to_string(dims));
    }
  }
}

TEST(BatchMuxDifferential, AdversarialRandomStreams) {
  // Multi-bit payload symbols exercise every slice's two classes at once;
  // control symbols and mid-stream SOFs must stay uniform across lanes.
  util::Rng rng(9101);
  const std::uint8_t palette[] = {
      core::Alphabet::kSof,   core::Alphabet::kEof,
      core::Alphabet::kFill,  core::Alphabet::data(0x00),
      core::Alphabet::data(0x55), core::Alphabet::data(0x2a),
      core::Alphabet::data(0x7f), 0xff};
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t dims = 1 + rng.below(16);
    const std::size_t slices = 1 + rng.below(7);
    const auto data = test::random_dataset(rng, 1 + rng.below(10), dims);
    const MuxConfig c = build_mux(data, slices);
    std::vector<std::uint8_t> stream(8 + rng.below(5 * dims + 50));
    for (auto& s : stream) {
      s = palette[rng.below(std::size(palette))];
    }
    expect_identical_mux(c, stream, "trial " + std::to_string(trial));
  }
}

TEST(BatchMuxProgram, CompilesTwoClassesPerSlice) {
  util::Rng rng(9102);
  const auto data = test::random_dataset(rng, 9, 16);
  const MuxConfig c = build_mux(data, 7);
  const auto program = compile_mux_or_die(c);
  EXPECT_EQ(program->macro_count(), 63u);  // 9 vectors x 7 slices
  EXPECT_EQ(program->match_classes(), 14u);
  EXPECT_EQ(program->words(), 1u);
  EXPECT_EQ(program->family(), MacroFamily::kMultiplexed);
}

TEST(BatchMuxProgram, DeepTreesAndPartialSlices) {
  util::Rng rng(9103);
  core::HammingMacroOptions deep;
  deep.collector_fan_in = 2;
  deep.max_counter_fan_in = 2;
  const auto data = test::random_dataset(rng, 5, 17);
  const MuxConfig c = build_mux(data, 3, deep);
  const core::MultiplexedStreamEncoder enc(c.spec);
  // A full 3-query frame followed by a partial 1-query frame.
  const auto queries = test::random_dataset(rng, 4, 17);
  std::vector<std::uint8_t> stream;
  enc.append_group(queries, 0, 3, stream);
  enc.append_group(queries, 3, 1, stream);
  expect_identical_mux(c, stream, "deep partial");
}

}  // namespace
}  // namespace apss::apsim
