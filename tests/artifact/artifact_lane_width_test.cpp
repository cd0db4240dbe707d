// Cross-width artifact contract: compiled artifacts are lane-width
// AGNOSTIC. An artifact saved by a producer running at one lane width must
// load and replay bit-identically under every other width (the serialized
// state is canonical 64-bit words; the padded wide-lane layout is rebuilt
// on load — the "re-pack path"), and corrupt input through the re-pack
// path must keep yielding typed errors or valid programs — never a
// width-dependent difference, crash, or silently wrong result.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apsim/batch_simulator.hpp"
#include "apsim/lane_word.hpp"
#include "apss_test_support.hpp"
#include "artifact/artifact.hpp"
#include "core/design.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "core/opt/vector_packing.hpp"
#include "core/stream.hpp"
#include "util/rng.hpp"

namespace apss {
namespace {

constexpr apsim::LaneWidth kWidths[] = {
    apsim::LaneWidth::k64, apsim::LaneWidth::k256, apsim::LaneWidth::k512};

class ForcePortable {
 public:
  ForcePortable() { setenv("APSS_DISABLE_SIMD", "1", 1); }
  ~ForcePortable() { unsetenv("APSS_DISABLE_SIMD"); }
};

struct Built {
  std::shared_ptr<const apsim::BatchProgram> program;
  knn::BinaryDataset data;
  core::StreamSpec spec;
};

Built build_hamming(std::size_t n, std::size_t dims, std::uint64_t seed) {
  util::Rng rng(seed);
  Built b;
  b.data = test::random_dataset(rng, n, dims);
  anml::AutomataNetwork net("lane-width-hamming");
  std::vector<core::MacroLayout> layouts;
  for (std::size_t i = 0; i < n; ++i) {
    layouts.push_back(core::append_hamming_macro(
        net, b.data.vector(i), static_cast<std::uint32_t>(i), {}));
  }
  b.spec = core::StreamSpec{dims, layouts.front().collector_levels};
  std::string reason;
  b.program = apsim::BatchProgram::try_compile(net, layouts, {}, &reason);
  EXPECT_NE(b.program, nullptr) << reason;
  return b;
}

Built build_packed(std::size_t n, std::size_t dims, std::size_t group,
                   std::uint64_t seed) {
  util::Rng rng(seed);
  Built b;
  b.data = test::random_dataset(rng, n, dims);
  anml::AutomataNetwork net("lane-width-packed");
  core::VectorPackingOptions opt;
  opt.group_size = group;
  opt.style = core::CollectorStyle::kTree;
  const auto layouts = core::build_packed_network(net, b.data, opt);
  b.spec = core::StreamSpec{dims, layouts.front().collector_levels};
  std::string reason;
  b.program = apsim::BatchProgram::try_compile(net, layouts, {}, &reason);
  EXPECT_NE(b.program, nullptr) << reason;
  return b;
}

Built build_multiplexed(std::size_t n, std::size_t dims, std::size_t slices,
                        std::uint64_t seed) {
  util::Rng rng(seed);
  Built b;
  b.data = test::random_dataset(rng, n, dims);
  anml::AutomataNetwork net("lane-width-mux");
  const auto layouts = core::build_multiplexed_network(net, b.data, slices, {});
  b.spec = core::StreamSpec{dims, layouts.front().collector_levels};
  std::string reason;
  b.program = apsim::BatchProgram::try_compile(net, layouts, {}, &reason);
  EXPECT_NE(b.program, nullptr) << reason;
  return b;
}

artifact::Artifact wrap(const Built& b) {
  artifact::Artifact a;
  a.meta.key_hash = 0xabcd;
  a.meta.network_digest = 0xfeed;
  a.meta.builder = "lane-width-test";
  a.meta.network_name = "lane-width";
  a.meta.dataset_count = b.data.size();
  a.program = b.program;
  return a;
}

std::vector<std::uint8_t> encoded_stream(const Built& b, std::size_t queries,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  const core::SymbolStreamEncoder enc(b.spec);
  return enc.encode_batch(test::random_dataset(rng, queries, b.spec.dims));
}

/// Saves the artifact, loads it back, and replays `stream` on the LOADED
/// program at every width (plus forced-portable): every run must equal the
/// ORIGINAL program's width-64 run, and the loaded state must equal the
/// original state exactly.
void expect_cross_width_artifact(const Built& b,
                                 std::span<const std::uint8_t> stream,
                                 const std::string& what) {
  const artifact::LoadResult loaded =
      artifact::decode(artifact::encode(wrap(b)));
  ASSERT_TRUE(loaded) << what << ": " << loaded.error.detail;
  ASSERT_EQ(loaded.artifact->program->state(), b.program->state()) << what;

  apsim::BatchSimulator original(b.program, apsim::LaneWidth::k64);
  const auto expected = original.run(stream);
  EXPECT_FALSE(expected.empty()) << what << ": replay produced no reports";
  for (const apsim::LaneWidth w : kWidths) {
    apsim::BatchSimulator replay(loaded.artifact->program, w);
    EXPECT_EQ(replay.run(stream), expected)
        << what << " loaded width=" << to_string(w);
  }
  ForcePortable portable;
  for (const apsim::LaneWidth w : kWidths) {
    apsim::BatchSimulator replay(loaded.artifact->program, w);
    EXPECT_EQ(replay.run(stream), expected)
        << what << " loaded portable width=" << to_string(w);
  }
}

TEST(ArtifactLaneWidth, LoadedProgramsRunIdenticallyAtEveryWidth) {
  {
    // 70 lanes: ragged 64-bit tail exercises the valid-mask re-pack.
    const Built b = build_hamming(70, 18, 1);
    expect_cross_width_artifact(b, encoded_stream(b, 4, 10), "hamming 70x18");
  }
  {
    // 257 lanes: crosses the 256-bit block boundary after re-pack.
    const Built b = build_hamming(257, 9, 2);
    expect_cross_width_artifact(b, encoded_stream(b, 2, 11), "hamming 257x9");
  }
  {
    const Built b = build_packed(11, 24, 4, 3);
    expect_cross_width_artifact(b, encoded_stream(b, 3, 12), "packed 11x24");
  }
  {
    const Built b = build_multiplexed(10, 12, 7, 4);
    util::Rng rng(13);
    const core::SymbolStreamEncoder enc(b.spec);
    std::size_t frames = 0;
    const auto stream =
        enc.encode_multiplexed(test::random_dataset(rng, 9, 12), frames);
    expect_cross_width_artifact(b, stream, "multiplexed 10x12");
  }
}

TEST(ArtifactLaneWidth, StateIsCanonicalAtExactWordMultiples) {
  // lanes % 64 == 0: the serialized rows must stay exactly lanes/64 words
  // (no padding leaks into the format) and the state must round-trip.
  for (const std::size_t n : {64u, 256u, 512u}) {
    const Built b = build_hamming(n, 6, 40 + n);
    const apsim::BatchProgramState s = b.program->state();
    EXPECT_EQ(s.dim_rows.size(), s.dims * s.class_count * (n / 64)) << n;
    std::string error;
    const auto rebuilt = apsim::BatchProgram::from_state(s, &error);
    ASSERT_NE(rebuilt, nullptr) << error;
    EXPECT_EQ(rebuilt->state(), s) << n;
  }
}

/// Corruption fuzz through the re-pack path: random byte flips over the
/// whole artifact (seeded, replayable). Every mutation must either be
/// REJECTED with a typed error or decode to a program that (a) round-trips
/// its state and (b) replays bit-identically at 64 and 512 bits — the
/// padded rebuild must never turn damage into width-dependent behavior.
TEST(ArtifactLaneWidth, CorruptionFuzzIsWidthIndependent) {
  const Built b = build_hamming(66, 10, 5);
  const std::vector<std::uint8_t> bytes = artifact::encode(wrap(b));
  const auto stream = encoded_stream(b, 2, 14);
  util::Rng rng(0xC0FFEE);
  int accepted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> mutated = bytes;
    const int flips = 1 + static_cast<int>(rng.below(3));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    const artifact::LoadResult result = artifact::decode(mutated);
    if (!result) {
      EXPECT_FALSE(result.error.detail.empty()) << "trial " << trial;
      continue;
    }
    ++accepted;
    const auto& program = result.artifact->program;
    std::string error;
    const auto rebuilt = apsim::BatchProgram::from_state(program->state(),
                                                         &error);
    ASSERT_NE(rebuilt, nullptr) << "trial " << trial << ": " << error;
    apsim::BatchSimulator narrow(program, apsim::LaneWidth::k64);
    apsim::BatchSimulator wide(program, apsim::LaneWidth::k512);
    EXPECT_EQ(wide.run(stream), narrow.run(stream)) << "trial " << trial;
  }
  // The hash check makes surviving mutations rare; the property above must
  // hold for however many get through.
  SUCCEED() << accepted << " mutations decoded";
}

TEST(ArtifactLaneWidth, TypedLoadErrorsAreWidthIndependent) {
  // The same damaged input must produce the same typed error whether SIMD
  // is available or force-disabled — decode never consults the lane width.
  const Built b = build_hamming(5, 8, 6);
  std::vector<std::uint8_t> bytes = artifact::encode(wrap(b));
  bytes.resize(bytes.size() / 2);  // truncate
  const artifact::LoadResult with_simd = artifact::decode(bytes);
  ASSERT_FALSE(with_simd);
  ForcePortable portable;
  const artifact::LoadResult without_simd = artifact::decode(bytes);
  ASSERT_FALSE(without_simd);
  EXPECT_EQ(with_simd.error.code, without_simd.error.code);
  EXPECT_EQ(with_simd.error.detail, without_simd.error.detail);
}

}  // namespace
}  // namespace apss
