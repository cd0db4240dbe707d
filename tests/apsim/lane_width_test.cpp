// Width-sweep differential matrix for the wide-lane batch backend: every
// stepping width (64 / 256 / 512, with the resolved and the forced-portable
// match-count kernel alike) must produce BIT-IDENTICAL ReportEvent streams
// — same cycles, element ids, report codes, within-cycle order — as the
// cycle-accurate reference on every compiled family (hamming, packed,
// multiplexed), on encoded query frames, adversarial random streams and
// counter-saturating fills, at ragged lane counts straddling every word
// boundary. Also pins the resolve_lane_kernels dispatch contract and the
// exact-multiple tail-mask behaviour (lanes % 64 == 0 must yield a full,
// not empty, tail mask).

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "apsim/batch_simulator.hpp"
#include "apsim/lane_word.hpp"
#include "apsim/simulator.hpp"
#include "apss_test_support.hpp"
#include "core/design.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "core/opt/vector_packing.hpp"
#include "core/stream.hpp"
#include "knn/dataset.hpp"
#include "util/rng.hpp"

namespace apss::apsim {
namespace {

constexpr LaneWidth kWidths[] = {LaneWidth::k64, LaneWidth::k256,
                                 LaneWidth::k512};

/// Scoped APSS_DISABLE_SIMD=1: forces resolve_match_counts onto the
/// portable bit count for simulators constructed inside the scope.
/// Set/restored between constructions only — never concurrently with them.
class ForcePortable {
 public:
  ForcePortable() { setenv("APSS_DISABLE_SIMD", "1", 1); }
  ~ForcePortable() { unsetenv("APSS_DISABLE_SIMD"); }
};

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

std::shared_ptr<const BatchProgram> compile_or_die(const Config& c) {
  std::string reason;
  auto program = BatchProgram::try_compile(c.network, c.layouts, {}, &reason);
  if (program == nullptr) {
    throw std::runtime_error("try_compile declined: " + reason);
  }
  return program;
}

/// Runs `program` over `stream` at every width, with the resolved AND the
/// forced-portable match-count kernel, and asserts each run equals
/// `expected` (the reference simulator's events).
void expect_all_widths(std::shared_ptr<const BatchProgram> program,
                       std::span<const std::uint8_t> stream,
                       const std::vector<ReportEvent>& expected,
                       const std::string& context) {
  for (const LaneWidth w : kWidths) {
    BatchSimulator batch(program, w);
    ASSERT_EQ(batch.lane_width(), w) << context;
    ASSERT_EQ(batch.run(stream), expected)
        << context << " width=" << to_string(w);
  }
  ForcePortable portable;
  for (const LaneWidth w : kWidths) {
    BatchSimulator batch(program, w);
    ASSERT_EQ(batch.run(stream), expected)
        << context << " portable width=" << to_string(w);
  }
}

void expect_all_widths(const Config& c, std::span<const std::uint8_t> stream,
                       const std::string& context) {
  Simulator reference(c.network);
  expect_all_widths(compile_or_die(c), stream, reference.run(stream), context);
}

// --- Ragged lane counts across every word boundary --------------------------

TEST(LaneWidthSweep, RaggedLaneCountsEncodedQueries) {
  // 63/64/65 straddle the 64-bit word boundary, 255/256/257 the 256-bit
  // block boundary (and 256 is half a 512-bit block) — the tail-masking /
  // padding edge cases for every width.
  util::Rng rng(2024);
  const std::size_t lane_grid[] = {63, 64, 65, 255, 256, 257};
  for (const std::size_t n : lane_grid) {
    const std::size_t dims = 1 + rng.below(24);
    const auto data = test::random_dataset(rng, n, dims);
    const Config c = build_config(data);
    const core::SymbolStreamEncoder enc(c.spec);
    const auto queries = test::random_dataset(rng, 2, dims);
    expect_all_widths(c, enc.encode_batch(queries),
                      "n=" + std::to_string(n) + " d=" + std::to_string(dims));
  }
}

TEST(LaneWidthSweep, ExactMultipleLaneCountsReportTheLastLane) {
  // Regression guard for the valid-tail computation: at lanes % 64 == 0 the
  // tail mask must be ALL ones (a naive (1 << (lanes % 64)) - 1 would yield
  // zero and silently kill the last word's lanes). Querying the dataset's
  // final vector exactly must therefore report its lane at every width.
  util::Rng rng(4096);
  for (const std::size_t n : {64u, 256u, 512u}) {
    const std::size_t dims = 8;
    const auto data = test::random_dataset(rng, n, dims);
    const Config c = build_config(data);
    const auto program = compile_or_die(c);
    const core::SymbolStreamEncoder enc(c.spec);
    const auto stream = enc.encode_query(data.vector(n - 1));

    Simulator reference(c.network);
    const auto expected = reference.run(stream);
    // The distance-0 self-match must actually fire — an all-zero tail mask
    // would make this run (and the broken batch run) empty-equal.
    bool last_lane_reported = false;
    for (const ReportEvent& e : expected) {
      if (e.element == c.layouts[n - 1].report) {
        last_lane_reported = true;
      }
    }
    ASSERT_TRUE(last_lane_reported) << "n=" << n;
    expect_all_widths(program, stream, expected, "n=" + std::to_string(n));
  }
}

// --- Adversarial streams -----------------------------------------------------

TEST(LaneWidthSweep, AdversarialRandomStreams) {
  util::Rng rng(31337);
  const std::uint8_t palette[] = {
      core::Alphabet::kSof,  core::Alphabet::kEof, core::Alphabet::kFill,
      core::Alphabet::data_bit(false), core::Alphabet::data_bit(true),
      0x7f, 0x00, 0xff};
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t dims = 1 + rng.below(20);
    const std::size_t n = 1 + rng.below(140);
    const Config c = build_config(test::random_dataset(rng, n, dims));
    std::vector<std::uint8_t> stream(8 + rng.below(6 * dims + 60));
    for (auto& s : stream) {
      s = palette[rng.below(std::size(palette))];
    }
    expect_all_widths(c, stream, "trial " + std::to_string(trial));
  }
}

TEST(LaneWidthSweep, CounterSaturationLongFill) {
  // Fill far past the counter bit-plane range so the packed counters
  // saturate; the overflow pinning and EOF bias reload must behave
  // identically at every width, including after a fresh frame.
  util::Rng rng(99);
  const std::size_t dims = 6;
  const auto data = test::random_dataset(rng, 70, dims);
  const Config c = build_config(data);
  std::vector<std::uint8_t> stream;
  stream.push_back(core::Alphabet::kSof);
  for (std::size_t i = 0; i < dims; ++i) {
    stream.push_back(core::Alphabet::data_bit(rng.bernoulli(0.5)));
  }
  stream.insert(stream.end(), 500, core::Alphabet::kFill);
  stream.push_back(core::Alphabet::kEof);
  const core::SymbolStreamEncoder enc(c.spec);
  const auto tail = enc.encode_query(test::random_bitvector(rng, dims));
  stream.insert(stream.end(), tail.begin(), tail.end());
  expect_all_widths(c, stream, "saturation");
}

// --- The packed and multiplexed families -------------------------------------

TEST(LaneWidthSweep, PackedFamilyRunsAtEveryWidth) {
  util::Rng rng(808);
  for (const std::size_t n : {65u, 130u, 257u}) {
    const auto data = test::random_dataset(rng, n, 12);
    core::VectorPackingOptions opt;
    opt.group_size = 5;
    anml::AutomataNetwork network;
    const auto layouts = core::build_packed_network(network, data, opt);
    std::string reason;
    const auto program =
        BatchProgram::try_compile(network, layouts, {}, &reason);
    ASSERT_NE(program, nullptr) << reason;
    ASSERT_EQ(program->family(), MacroFamily::kPacked);

    const core::StreamSpec spec{data.dims(),
                                layouts.front().collector_levels};
    const core::SymbolStreamEncoder enc(spec);
    const auto stream = enc.encode_batch(test::random_dataset(rng, 3, 12));
    Simulator reference(network);
    expect_all_widths(program, stream, reference.run(stream),
                      "packed n=" + std::to_string(n));
  }
}

TEST(LaneWidthSweep, MultiplexedFamilyRunsAtEveryWidth) {
  util::Rng rng(606);
  const std::size_t dims = 10;
  const std::size_t slices = 7;
  const auto data = test::random_dataset(rng, 67, dims);
  anml::AutomataNetwork network;
  const auto layouts =
      core::build_multiplexed_network(network, data, slices, {});
  std::string reason;
  const auto program = BatchProgram::try_compile(network, layouts, {}, &reason);
  ASSERT_NE(program, nullptr) << reason;
  ASSERT_EQ(program->family(), MacroFamily::kMultiplexed);

  const core::StreamSpec spec{dims, core::collector_levels_for(dims, {})};
  const core::SymbolStreamEncoder enc(spec);
  std::size_t frames = 0;
  const auto stream =
      enc.encode_multiplexed(test::random_dataset(rng, 9, dims), frames);
  ASSERT_GE(frames, 2u);
  Simulator reference(network);
  expect_all_widths(program, stream, reference.run(stream), "multiplexed");
}

// --- Cross-width property fuzz -----------------------------------------------

TEST(LaneWidthSweep, CrossWidthPropertyFuzz) {
  // Randomized (dims, lanes, stream) sweeps: every width — SIMD and
  // portable — must agree with the reference AND with each other. The seed
  // is in every failure message, so a counterexample replays exactly.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed * 0x9e3779b97f4a7c15ull);
    const std::size_t dims = 1 + rng.below(32);
    const std::size_t n = 1 + rng.below(300);
    const Config c = build_config(test::random_dataset(rng, n, dims));
    const core::SymbolStreamEncoder enc(c.spec);
    std::vector<std::uint8_t> stream =
        enc.encode_batch(test::random_dataset(rng, 1 + rng.below(3), dims));
    // Splice in raw-symbol noise so control/edge symbols hit mid-frame.
    const std::uint8_t palette[] = {core::Alphabet::kSof, core::Alphabet::kEof,
                                    core::Alphabet::kFill, 0x00, 0xff};
    for (int i = 0; i < 16 && !stream.empty(); ++i) {
      stream[rng.below(stream.size())] = palette[rng.below(std::size(palette))];
    }
    Simulator reference(c.network);
    const auto expected = reference.run(stream);
    const auto program = compile_or_die(c);
    expect_all_widths(program, stream, expected,
                      "fuzz seed=" + std::to_string(seed) +
                          " n=" + std::to_string(n) +
                          " d=" + std::to_string(dims));
  }
}

// --- Dispatch contract -------------------------------------------------------

TEST(LaneKernelDispatch, ExplicitWidthsAreAlwaysHonored) {
  for (const LaneWidth w : kWidths) {
    const LaneKernels k = resolve_lane_kernels(w);
    EXPECT_EQ(k.width, w);
    EXPECT_EQ(k.width_bits() % 64, 0u);
    EXPECT_EQ(k.width_bits() / 64, k.block_words());
    EXPECT_LE(k.block_words(), kLaneBlockWords);
    EXPECT_NE(k.or_rows, nullptr);
    EXPECT_NE(k.counter_update, nullptr);
  }
}

TEST(LaneKernelDispatch, EveryWidthStepsOnItsPortableKernel) {
  // One portable stepping kernel per width: "scalar" at 64 bits, "portable"
  // at 256 and 512, whether or not APSS_DISABLE_SIMD is set (it switches
  // only the match-count kernel). Without a width, kernels and simulators
  // step at 64 bits.
  util::Rng rng(11);
  const auto program =
      compile_or_die(build_config(test::random_dataset(rng, 5, 8)));
  for (const bool disabled : {false, true}) {
    SCOPED_TRACE(disabled ? "APSS_DISABLE_SIMD=1" : "environment as given");
    std::optional<ForcePortable> portable;
    if (disabled) {
      portable.emplace();
    }
    for (const LaneWidth w : kWidths) {
      const LaneKernels k = resolve_lane_kernels(w);
      EXPECT_EQ(k.width, w);
      EXPECT_STREQ(k.isa, w == LaneWidth::k64 ? "scalar" : "portable");
    }
    const LaneKernels preset = resolve_lane_kernels();
    EXPECT_EQ(preset.width, LaneWidth::k64);
    EXPECT_STREQ(preset.isa, "scalar");
    EXPECT_EQ(BatchSimulator(program).lane_width(), LaneWidth::k64);
  }
}

TEST(LaneKernelDispatch, PrintsEveryWidth) {
  EXPECT_STREQ(to_string(LaneWidth::k64), "64");
  EXPECT_STREQ(to_string(LaneWidth::k256), "256");
  EXPECT_STREQ(to_string(LaneWidth::k512), "512");
}

TEST(LaneKernelDispatch, SimulatorExposesResolvedWidth) {
  util::Rng rng(11);
  const Config c = build_config(test::random_dataset(rng, 5, 8));
  const auto program = compile_or_die(c);
  for (const LaneWidth w : kWidths) {
    BatchSimulator batch(program, w);
    EXPECT_EQ(batch.lane_width(), w);
  }
}

}  // namespace
}  // namespace apss::apsim
