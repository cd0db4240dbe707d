// Differential validation of the bit-parallel batch backend against the
// cycle-accurate reference simulator: on supported (homogeneous
// Hamming/sorting macro) configurations the two must produce BIT-IDENTICAL
// ReportEvent streams — same cycles, same element ids, same report codes,
// same within-cycle order — on encoded query frames AND on adversarial
// random symbol streams (mid-frame SOFs, missing EOFs, overlapping
// wavefronts, counter saturation).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apsim/batch_simulator.hpp"
#include "apsim/simulator.hpp"
#include "apss_test_support.hpp"
#include "core/design.hpp"
#include "core/hamming_macro.hpp"
#include "core/stream.hpp"
#include "knn/dataset.hpp"
#include "util/rng.hpp"

namespace apss::apsim {
namespace {

/// A configuration network plus everything needed to build both simulators.
struct Config {
  anml::AutomataNetwork network;
  std::vector<core::MacroLayout> layouts;
  core::StreamSpec spec;
};

Config build_config(const knn::BinaryDataset& data,
                    const core::HammingMacroOptions& opt = {}) {
  Config c;
  for (std::size_t i = 0; i < data.size(); ++i) {
    c.layouts.push_back(core::append_hamming_macro(
        c.network, data.vector(i), static_cast<std::uint32_t>(i), opt));
  }
  c.spec = core::StreamSpec{data.dims(),
                            core::collector_levels_for(data.dims(), opt)};
  return c;
}

std::shared_ptr<const BatchProgram> compile_or_die(const Config& c,
                                                   SimOptions options = {}) {
  std::string reason;
  auto program =
      BatchProgram::try_compile(c.network, c.layouts, options, &reason);
  if (program == nullptr) {
    throw std::runtime_error("try_compile declined: " + reason);
  }
  return program;
}

void expect_identical_runs(const Config& c,
                           std::span<const std::uint8_t> stream,
                           const std::string& context) {
  Simulator reference(c.network);
  BatchSimulator batch(compile_or_die(c));
  const auto expected = reference.run(stream);
  const auto actual = batch.run(stream);
  ASSERT_EQ(actual, expected) << context;
}

// --- Differential sweeps ----------------------------------------------------

TEST(BatchSimulatorDifferential, EncodedQuerySweep) {
  util::Rng rng(4242);
  const std::size_t dims_grid[] = {1, 2, 5, 8, 16, 33, 64, 128};
  const std::size_t n_grid[] = {1, 3, 17, 64, 65};
  for (const std::size_t dims : dims_grid) {
    for (const std::size_t n : n_grid) {
      const auto data = test::random_dataset(rng, n, dims);
      const Config c = build_config(data);
      const auto queries =
          test::random_dataset(rng, 1 + rng.below(4), dims);
      const core::SymbolStreamEncoder enc(c.spec);
      expect_identical_runs(c, enc.encode_batch(queries),
                            "d=" + std::to_string(dims) +
                                " n=" + std::to_string(n));
    }
  }
}

TEST(BatchSimulatorDifferential, DeepCollectorTreesAndBitSlices) {
  util::Rng rng(777);
  core::HammingMacroOptions deep;
  deep.collector_fan_in = 2;
  deep.max_counter_fan_in = 2;  // forces L = ceil(log2(dims)) levels
  core::HammingMacroOptions sliced;
  sliced.bit_slice = 3;
  for (const auto& opt : {deep, sliced}) {
    for (const std::size_t dims : {3u, 9u, 40u}) {
      const auto data = test::random_dataset(rng, 13, dims);
      const Config c = build_config(data, opt);
      ASSERT_GE(compile_or_die(c)->collector_levels(), 1u);
      // Queries must be encoded on the macro's slice to be meaningful, but
      // the equivalence must hold for slice-0 frames either way.
      const core::SymbolStreamEncoder enc(c.spec);
      const auto queries = test::random_dataset(rng, 3, dims);
      expect_identical_runs(c, enc.encode_batch(queries),
                            "slice=" + std::to_string(opt.bit_slice) +
                                " d=" + std::to_string(dims));
    }
  }
}

TEST(BatchSimulatorDifferential, AdversarialRandomStreams) {
  // Raw random symbols: mid-stream SOFs launch overlapping wavefronts,
  // missing EOFs leave the sort phase running, control symbols hit the
  // match states' don't-care logic. The backends must still agree exactly.
  util::Rng rng(31337);
  const std::uint8_t palette[] = {
      core::Alphabet::kSof,  core::Alphabet::kEof, core::Alphabet::kFill,
      core::Alphabet::data_bit(false), core::Alphabet::data_bit(true),
      0x7f, 0x00, 0xff};
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t dims = 1 + rng.below(24);
    const std::size_t n = 1 + rng.below(70);
    const Config c = build_config(test::random_dataset(rng, n, dims));
    std::vector<std::uint8_t> stream(8 + rng.below(6 * dims + 60));
    for (auto& s : stream) {
      s = palette[rng.below(std::size(palette))];
    }
    expect_identical_runs(c, stream, "trial " + std::to_string(trial));
  }
}

TEST(BatchSimulatorDifferential, CounterSaturationLongFill) {
  // A frame whose fill phase runs far past the counter's bit-plane range:
  // the packed counters saturate, the reference counters keep counting.
  // Only the >= threshold predicate is observable, so reports must agree —
  // including after a late EOF reset and a fresh frame.
  util::Rng rng(99);
  const std::size_t dims = 6;
  const auto data = test::random_dataset(rng, 9, dims);
  const Config c = build_config(data);
  std::vector<std::uint8_t> stream;
  stream.push_back(core::Alphabet::kSof);
  for (std::size_t i = 0; i < dims; ++i) {
    stream.push_back(core::Alphabet::data_bit(rng.bernoulli(0.5)));
  }
  stream.insert(stream.end(), 500, core::Alphabet::kFill);  // >> 2^planes
  stream.push_back(core::Alphabet::kEof);
  const core::SymbolStreamEncoder enc(c.spec);
  const auto tail = enc.encode_query(test::random_bitvector(rng, dims));
  stream.insert(stream.end(), tail.begin(), tail.end());
  expect_identical_runs(c, stream, "saturation");
}

TEST(BatchSimulatorDifferential, RunContinueConcatenatesLikeReference) {
  util::Rng rng(55);
  const std::size_t dims = 12;
  const Config c = build_config(test::random_dataset(rng, 20, dims));
  const core::SymbolStreamEncoder enc(c.spec);

  Simulator reference(c.network);
  BatchSimulator batch(compile_or_die(c));
  reference.reset();
  batch.reset();
  for (int frame = 0; frame < 4; ++frame) {
    const auto stream = enc.encode_query(test::random_bitvector(rng, dims));
    const auto expected = reference.run_continue(stream);
    const auto actual = batch.run_continue(stream);
    ASSERT_EQ(actual, expected) << "frame " << frame;
  }
  ASSERT_EQ(batch.reports(), reference.reports());
  ASSERT_EQ(batch.cycle(), reference.cycle());
}

// --- Support detection ------------------------------------------------------

TEST(BatchProgram, CompilesTheEngineMacroFamily) {
  util::Rng rng(1);
  const Config c = build_config(test::random_dataset(rng, 70, 16));
  const auto program = compile_or_die(c);
  EXPECT_EQ(program->macro_count(), 70u);
  EXPECT_EQ(program->dims(), 16u);
  EXPECT_EQ(program->words(), 2u);  // 70 macros -> two 64-bit words
  EXPECT_EQ(program->family(), MacroFamily::kHamming);  // single-slice classes
}

TEST(BatchSimulator, RejectsNullProgram) {
  // A declined try_compile must never reach a simulator: callers fall back.
  EXPECT_THROW(BatchSimulator(nullptr), std::invalid_argument);
}

TEST(BatchProgram, RejectsCounterIncrementCapAboveOne) {
  util::Rng rng(2);
  const Config c = build_config(test::random_dataset(rng, 4, 8));
  SimOptions opt;
  opt.max_counter_increment = 8;
  std::string reason;
  EXPECT_EQ(BatchProgram::try_compile(c.network, c.layouts, opt, &reason),
            nullptr);
  EXPECT_NE(reason.find("max_counter_increment"), std::string::npos) << reason;
}

TEST(BatchProgram, RejectsForeignElements) {
  util::Rng rng(3);
  Config c = build_config(test::random_dataset(rng, 4, 8));
  c.network.add_ste(anml::SymbolSet::all());  // stray element
  std::string reason;
  EXPECT_EQ(BatchProgram::try_compile(c.network, c.layouts, {}, &reason),
            nullptr);
  EXPECT_NE(reason.find("outside the macro set"), std::string::npos) << reason;
}

TEST(BatchProgram, RejectsTamperedThreshold) {
  util::Rng rng(4);
  Config c = build_config(test::random_dataset(rng, 4, 8));
  c.network.element(c.layouts[0].counter).threshold = 3;  // != dims
  std::string reason;
  EXPECT_EQ(BatchProgram::try_compile(c.network, c.layouts, {}, &reason),
            nullptr);
  EXPECT_NE(reason.find("threshold"), std::string::npos) << reason;
}

TEST(BatchProgram, ExtraMatchClassesCompileAndStayIdentical) {
  // Since the multiplexed-shape generalization, up to kMaxBatchMatchClasses
  // distinct matching classes are supported — a third class (formerly a
  // rejection) must compile AND stay bit-identical to the reference.
  util::Rng rng(5);
  Config c = build_config(test::random_dataset(rng, 4, 8));
  c.network.element(c.layouts[1].match[2]).symbols =
      anml::SymbolSet::single('z');
  const auto program = compile_or_die(c);
  EXPECT_EQ(program->match_classes(), 3u);
  const core::SymbolStreamEncoder enc(c.spec);
  auto stream = enc.encode_batch(test::random_dataset(rng, 2, 8));
  stream.push_back('z');  // exercise the foreign class directly
  expect_identical_runs(c, stream, "three classes");
}

TEST(BatchProgram, RejectsMoreClassesThanTheAcceptanceMaskHolds) {
  util::Rng rng(5);
  Config c = build_config(test::random_dataset(rng, 20, 24));
  // 17 distinct single-symbol classes overflow the 16-bit class budget.
  for (std::size_t i = 0; i <= kMaxBatchMatchClasses; ++i) {
    c.network.element(c.layouts[i].match[0]).symbols =
        anml::SymbolSet::single(static_cast<std::uint8_t>('a' + i));
  }
  std::string reason;
  EXPECT_EQ(BatchProgram::try_compile(c.network, c.layouts, {}, &reason),
            nullptr);
  EXPECT_NE(reason.find("match classes"), std::string::npos) << reason;
}

TEST(BatchProgram, RejectsMacrosOutOfCounterOrder) {
  // The reference emits within-cycle reports in counter creation order;
  // a permuted macro span would silently reorder them, so it must decline.
  util::Rng rng(7);
  Config c = build_config(test::random_dataset(rng, 6, 8));
  std::swap(c.layouts[2], c.layouts[4]);
  std::string reason;
  EXPECT_EQ(BatchProgram::try_compile(c.network, c.layouts, {}, &reason),
            nullptr);
  EXPECT_NE(reason.find("counter creation order"), std::string::npos)
      << reason;
}

TEST(BatchProgram, RejectsTamperedStartKinds) {
  util::Rng rng(6);
  // A legal automaton that is no longer the macro shape must be refused —
  // running it bit-parallel would silently decode wrong distances.
  Config c = build_config(test::random_dataset(rng, 3, 8));
  c.network.element(c.layouts[2].match[5]).start = anml::StartKind::kAllInput;
  std::string reason;
  EXPECT_EQ(BatchProgram::try_compile(c.network, c.layouts, {}, &reason),
            nullptr);
  EXPECT_NE(reason.find("start kind"), std::string::npos) << reason;
}

}  // namespace
}  // namespace apss::apsim
