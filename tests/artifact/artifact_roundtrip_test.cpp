// Round-trip property suite for src/artifact: for every macro family and a
// spread of configuration shapes, load(save(program)) must reproduce the
// program exactly — same stored state, and bit-identical ReportEvent
// streams when replayed — and the engine-level compile cache must return
// the same search results and merged report streams as a cache-less build,
// at 1 and 4 threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "anml/anml_io.hpp"
#include "apsim/batch_simulator.hpp"
#include "apss_test_support.hpp"
#include "artifact/artifact.hpp"
#include "core/engine.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "core/opt/vector_packing.hpp"

namespace apss {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "apss_artifact_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A compiled program plus everything needed to replay queries through it.
struct Built {
  std::shared_ptr<const apsim::BatchProgram> program;
  knn::BinaryDataset data;
  core::StreamSpec spec;
};

Built build_hamming(std::size_t n, std::size_t dims, std::uint64_t seed,
                    core::HammingMacroOptions opt = {}) {
  util::Rng rng(seed);
  Built b;
  b.data = test::random_dataset(rng, n, dims);
  anml::AutomataNetwork net("roundtrip-hamming");
  std::vector<core::MacroLayout> layouts;
  for (std::size_t i = 0; i < n; ++i) {
    layouts.push_back(core::append_hamming_macro(
        net, b.data.vector(i), static_cast<std::uint32_t>(i), opt));
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
  anml::AutomataNetwork net("roundtrip-packed");
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
  anml::AutomataNetwork net("roundtrip-mux");
  const auto layouts =
      core::build_multiplexed_network(net, b.data, slices, {});
  b.spec = core::StreamSpec{dims, layouts.front().collector_levels};
  std::string reason;
  b.program = apsim::BatchProgram::try_compile(net, layouts, {}, &reason);
  EXPECT_NE(b.program, nullptr) << reason;
  return b;
}

artifact::Artifact wrap(const Built& b, std::uint64_t key) {
  artifact::Artifact a;
  a.meta.key_hash = key;
  a.meta.network_digest = 0xfeedULL;
  a.meta.builder = "roundtrip-test";
  a.meta.network_name = "roundtrip";
  a.meta.dataset_count = b.data.size();
  a.program = b.program;
  return a;
}

/// encode -> decode -> identical stored state and metadata.
void expect_state_roundtrip(const Built& b, const std::string& what) {
  const artifact::Artifact original = wrap(b, 0x1234);
  const std::vector<std::uint8_t> bytes = artifact::encode(original);
  const artifact::LoadResult loaded = artifact::decode(bytes);
  ASSERT_TRUE(loaded) << what << ": " << loaded.error.detail;
  EXPECT_EQ(loaded.artifact->meta, original.meta) << what;
  EXPECT_EQ(loaded.artifact->program->state(), b.program->state()) << what;
  // Re-encoding the decoded artifact is byte-identical (canonical format).
  EXPECT_EQ(artifact::encode(*loaded.artifact), bytes) << what;
}

/// Replays a query stream through the original and the round-tripped
/// program; the ReportEvent streams must be bit-identical.
void expect_replay_identical(const Built& b,
                             std::span<const std::uint8_t> stream,
                             const std::string& what) {
  const artifact::LoadResult loaded =
      artifact::decode(artifact::encode(wrap(b, 1)));
  ASSERT_TRUE(loaded) << what << ": " << loaded.error.detail;
  apsim::BatchSimulator original(b.program);
  apsim::BatchSimulator reloaded(loaded.artifact->program);
  const auto expected = original.run(stream);
  EXPECT_FALSE(expected.empty()) << what << ": replay produced no reports";
  EXPECT_EQ(reloaded.run(stream), expected) << what;
}

TEST(ArtifactRoundTrip, StateSurvivesAllFamiliesAndShapes) {
  // Hamming: single word, multi-word (>64 lanes), deep collector tree, and
  // a dims=1 edge shape.
  expect_state_roundtrip(build_hamming(5, 33, 11), "hamming 5x33");
  expect_state_roundtrip(build_hamming(70, 17, 12), "hamming 70x17");
  core::HammingMacroOptions deep;
  deep.collector_fan_in = 4;
  deep.max_counter_fan_in = 2;
  expect_state_roundtrip(build_hamming(9, 100, 13, deep),
                         "hamming 9x100 deep tree");
  expect_state_roundtrip(build_hamming(3, 1, 14), "hamming 3x1");
  // Packed: full and ragged last group.
  expect_state_roundtrip(build_packed(12, 40, 4, 15), "packed 12x40 g4");
  expect_state_roundtrip(build_packed(11, 24, 4, 16), "packed 11x24 ragged");
  // Multiplexed: full 7 slices and partial.
  expect_state_roundtrip(build_multiplexed(6, 12, 7, 17), "mux 6x12 s7");
  expect_state_roundtrip(build_multiplexed(20, 9, 3, 18), "mux 20x9 s3");
}

TEST(ArtifactRoundTrip, ReplayIsBitIdenticalPerFamily) {
  {
    const Built b = build_hamming(66, 21, 21);
    util::Rng rng(91);
    const auto queries = test::random_dataset(rng, 5, 21);
    const core::SymbolStreamEncoder encoder(b.spec);
    std::vector<std::uint8_t> stream;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      encoder.append_query(queries.row(q), stream);
    }
    expect_replay_identical(b, stream, "hamming");
  }
  {
    const Built b = build_packed(10, 30, 4, 22);
    util::Rng rng(92);
    const auto queries = test::random_dataset(rng, 4, 30);
    const core::SymbolStreamEncoder encoder(b.spec);
    std::vector<std::uint8_t> stream;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      encoder.append_query(queries.row(q), stream);
    }
    expect_replay_identical(b, stream, "packed");
  }
  {
    const Built b = build_multiplexed(8, 16, 7, 23);
    util::Rng rng(93);
    const auto queries = test::random_dataset(rng, 14, 16);
    const core::SymbolStreamEncoder encoder(b.spec);
    std::size_t frames = 0;
    const auto stream = encoder.encode_multiplexed(queries, frames);
    expect_replay_identical(b, stream, "multiplexed");
  }
}

/// Engine-level contract: compiling through the cache — cold (all misses)
/// and warm (all hits), serial and 4-threaded — returns the same neighbor
/// lists and the same merged ReportEvent stream as a cache-less engine.
TEST(ArtifactRoundTrip, EngineCacheIsInvisibleToResults) {
  util::Rng rng(31);
  const auto data = test::random_dataset(rng, 60, 24);
  const auto queries = test::random_dataset(rng, 6, 24);
  const std::string cache = fresh_dir("engine_roundtrip");

  core::EngineOptions base;
  base.backend = core::SimulationBackend::kBitParallel;
  base.max_vectors_per_config = 16;  // force 4 configurations
  base.collect_report_stream = true;
  base.threads = 1;

  core::ApKnnEngine reference(data, base);
  const auto expected = reference.search(queries, 3);
  const auto expected_stream = reference.last_report_stream();
  EXPECT_FALSE(expected_stream.empty());

  core::EngineOptions cached = base;
  cached.artifact_cache_dir = cache;
  core::ApKnnEngine cold(data, cached);
  EXPECT_EQ(cold.backend_stats().artifact.misses, cold.configurations());
  EXPECT_EQ(cold.backend_stats().artifact.hits, 0u);
  EXPECT_EQ(cold.search(queries, 3), expected);
  EXPECT_EQ(cold.last_report_stream(), expected_stream);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    core::EngineOptions warm = cached;
    warm.threads = threads;
    core::ApKnnEngine engine(data, warm);
    EXPECT_EQ(engine.backend_stats().artifact.hits, engine.configurations())
        << threads << " threads";
    EXPECT_EQ(engine.backend_stats().artifact.misses, 0u);
    EXPECT_EQ(engine.backend_stats().artifact.invalidations, 0u);
    EXPECT_EQ(engine.bit_parallel_configurations(), engine.configurations());
    EXPECT_EQ(engine.search(queries, 3), expected) << threads << " threads";
    EXPECT_EQ(engine.last_report_stream(), expected_stream)
        << threads << " threads";
    // The lazily rebuilt network matches what the compile path built.
    EXPECT_EQ(anml::network_digest(engine.network(1)),
              anml::network_digest(reference.network(1)));
  }
}

TEST(ArtifactRoundTrip, PackedEngineCacheRoundTrips) {
  util::Rng rng(32);
  const auto data = test::random_dataset(rng, 24, 20);
  const auto queries = test::random_dataset(rng, 4, 20);
  const std::string cache = fresh_dir("engine_packed");

  core::EngineOptions opt;
  opt.backend = core::SimulationBackend::kBitParallel;
  opt.packing_group_size = 4;
  opt.max_vectors_per_config = 12;
  opt.threads = 1;
  opt.artifact_cache_dir = cache;

  core::ApKnnEngine cold(data, opt);
  ASSERT_EQ(cold.backend_stats().packed, cold.configurations());
  EXPECT_EQ(cold.backend_stats().artifact.misses, cold.configurations());
  const auto expected = cold.search(queries, 2);

  core::ApKnnEngine warm(data, opt);
  EXPECT_EQ(warm.backend_stats().artifact.hits, warm.configurations());
  EXPECT_EQ(warm.backend_stats().packed, warm.configurations());
  EXPECT_EQ(warm.search(queries, 2), expected);
}

TEST(ArtifactRoundTrip, SaveArtifactFileRoundTripsThroughLoad) {
  util::Rng rng(33);
  const auto data = test::random_dataset(rng, 20, 16);
  const std::string dir = fresh_dir("save_file");
  core::EngineOptions opt;
  opt.backend = core::SimulationBackend::kBitParallel;
  opt.threads = 1;
  core::ApKnnEngine engine(data, opt);

  const std::string path = dir + "/cfg0.apss-art";
  std::string error;
  ASSERT_TRUE(engine.save_artifact(0, path, &error)) << error;
  const artifact::LoadResult loaded = artifact::load(path);
  ASSERT_TRUE(loaded) << loaded.error.detail;
  EXPECT_EQ(loaded.artifact->meta.key_hash, engine.artifact_key(0));
  EXPECT_EQ(loaded.artifact->meta.builder, "apss-knn-engine");
  EXPECT_EQ(loaded.artifact->meta.network_digest,
            anml::network_digest(engine.network(0)));
  EXPECT_EQ(loaded.artifact->meta.dataset_count, data.size());
  EXPECT_EQ(loaded.artifact->program->state(), engine.program(0)->state());
}

}  // namespace
}  // namespace apss
