// Invalidation suite for the compile cache: a cached artifact must stop
// being served — and the engine must recompile, overwrite, and report an
// invalidation in ApKnnEngine::backend_stats().artifact — whenever the
// artifact format version, the dataset slice, or the compiler options
// change.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apss_test_support.hpp"
#include "artifact/artifact.hpp"
#include "core/artifact_cache.hpp"
#include "core/engine.hpp"

namespace apss {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "apss_artifact_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

core::EngineOptions bit_options(const std::string& cache_dir) {
  core::EngineOptions opt;
  opt.backend = core::SimulationBackend::kBitParallel;
  opt.threads = 1;
  opt.artifact_cache_dir = cache_dir;
  return opt;
}

const core::ArtifactCacheStats& cache_stats(const core::ApKnnEngine& e) {
  return e.backend_stats().artifact;
}

TEST(ArtifactInvalidation, MissThenHitIsVisibleInStats) {
  util::Rng rng(41);
  const auto data = test::random_dataset(rng, 18, 16);
  const std::string dir = fresh_dir("miss_hit");

  core::ApKnnEngine first(data, bit_options(dir));
  EXPECT_EQ(cache_stats(first).misses, 1u);
  EXPECT_EQ(cache_stats(first).hits, 0u);
  EXPECT_EQ(cache_stats(first).invalidations, 0u);
  EXPECT_TRUE(std::filesystem::exists(first.artifact_cache_file(0)));

  core::ApKnnEngine second(data, bit_options(dir));
  EXPECT_EQ(cache_stats(second).hits, 1u);
  EXPECT_EQ(cache_stats(second).misses, 0u);
  EXPECT_EQ(cache_stats(second).invalidations, 0u);

  // Searching leaves the construction's outcome in place.
  auto queries = test::random_dataset(rng, 2, 16);
  core::ApKnnEngine third(data, bit_options(dir));
  third.search(queries, 2);
  EXPECT_EQ(cache_stats(third).hits, 1u);
}

TEST(ArtifactInvalidation, DatasetMutationInvalidates) {
  util::Rng rng(42);
  auto data = test::random_dataset(rng, 18, 16);
  const std::string dir = fresh_dir("dataset_mut");

  core::ApKnnEngine first(data, bit_options(dir));
  EXPECT_EQ(cache_stats(first).misses, 1u);

  data.set(7, 3, !data.get(7, 3));  // one flipped bit anywhere in the slice
  core::ApKnnEngine second(data, bit_options(dir));
  EXPECT_EQ(cache_stats(second).invalidations, 1u);
  EXPECT_EQ(cache_stats(second).hits, 0u);
  EXPECT_EQ(cache_stats(second).misses, 0u);
  // The recompiled program answers for the NEW dataset...
  auto queries = test::random_dataset(rng, 3, 16);
  test::expect_exact_knn_results(data, queries, 2,
                                 second.search(queries, 2), "post-mutation");
  // ...and overwrote the slot: the mutated dataset now hits.
  core::ApKnnEngine third(data, bit_options(dir));
  EXPECT_EQ(cache_stats(third).hits, 1u);
}

TEST(ArtifactInvalidation, CompilerOptionMutationInvalidates) {
  util::Rng rng(43);
  const auto data = test::random_dataset(rng, 18, 48);
  const std::string dir = fresh_dir("option_mut");

  core::ApKnnEngine first(data, bit_options(dir));
  EXPECT_EQ(cache_stats(first).misses, 1u);

  // Packing on/off is part of the key.
  core::EngineOptions packed = bit_options(dir);
  packed.packing_group_size = 4;
  core::ApKnnEngine second(data, packed);
  EXPECT_EQ(cache_stats(second).invalidations, 1u);
  EXPECT_EQ(cache_stats(second).hits, 0u);
}

TEST(ArtifactInvalidation, FormatVersionBumpInvalidates) {
  util::Rng rng(44);
  const auto data = test::random_dataset(rng, 12, 16);
  const std::string dir = fresh_dir("version_bump");

  core::ApKnnEngine first(data, bit_options(dir));
  const std::string slot = first.artifact_cache_file(0);
  ASSERT_TRUE(std::filesystem::exists(slot));

  // Patch the format-version field (offset 8, outside content-hash
  // coverage): simulates an artifact written by a future format.
  {
    std::fstream f(slot, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    const char bumped = static_cast<char>(artifact::kFormatVersion + 1);
    f.write(&bumped, 1);
  }
  const artifact::LoadResult direct = artifact::load(slot);
  ASSERT_FALSE(direct);
  EXPECT_EQ(direct.error.code, artifact::LoadErrorCode::kVersionMismatch);

  core::ApKnnEngine second(data, bit_options(dir));
  EXPECT_EQ(cache_stats(second).invalidations, 1u);
  EXPECT_EQ(cache_stats(second).hits, 0u);
  // The engine rewrote the slot at the current version: hits again.
  core::ApKnnEngine third(data, bit_options(dir));
  EXPECT_EQ(cache_stats(third).hits, 1u);
}

TEST(ArtifactInvalidation, CorruptSlotFileInvalidates) {
  util::Rng rng(45);
  const auto data = test::random_dataset(rng, 12, 16);
  const std::string dir = fresh_dir("corrupt_slot");

  core::ApKnnEngine first(data, bit_options(dir));
  const std::string slot = first.artifact_cache_file(0);
  {
    std::fstream f(slot, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(100);
    const char junk = 0x5a;
    f.write(&junk, 1);
  }
  core::ApKnnEngine second(data, bit_options(dir));
  EXPECT_EQ(cache_stats(second).invalidations, 1u);
  core::ApKnnEngine third(data, bit_options(dir));
  EXPECT_EQ(cache_stats(third).hits, 1u);
}

TEST(ArtifactInvalidation, TryLoadRejectsForeignKey) {
  util::Rng rng(46);
  const auto data = test::random_dataset(rng, 12, 16);
  const std::string dir = fresh_dir("foreign_key");
  core::ApKnnEngine engine(data, bit_options(dir));
  const std::string slot = engine.artifact_cache_file(0);

  const core::CachedProgram wrong_key = core::try_load_program(
      slot, engine.artifact_key(0) ^ 1, data.size(), data.dims());
  EXPECT_EQ(wrong_key.outcome, core::ArtifactOutcome::kInvalidated);
  EXPECT_EQ(wrong_key.program, nullptr);
  EXPECT_FALSE(wrong_key.detail.empty());

  const core::CachedProgram right = core::try_load_program(
      slot, engine.artifact_key(0), data.size(), data.dims());
  EXPECT_EQ(right.outcome, core::ArtifactOutcome::kHit);
  ASSERT_NE(right.program, nullptr);
  EXPECT_EQ(right.program->state(), engine.program(0)->state());

  const core::CachedProgram missing = core::try_load_program(
      dir + "/absent.apss-art", 0, data.size(), data.dims());
  EXPECT_EQ(missing.outcome, core::ArtifactOutcome::kMiss);
}

TEST(ArtifactInvalidation, MultiplexedCacheFlow) {
  // The multiplexed design rides the engine's one cache path: same slots,
  // same counters, the slice count in the key.
  util::Rng rng(47);
  auto data = test::random_dataset(rng, 8, 12);
  const auto queries = test::random_dataset(rng, 10, 12);
  const std::string dir = fresh_dir("mux_flow");
  core::EngineOptions opt = bit_options(dir);
  opt.multiplex_slices = 7;

  core::ApKnnEngine cold(data, opt);
  EXPECT_EQ(cache_stats(cold).misses, 1u);
  ASSERT_EQ(cold.bit_parallel_configurations(), 1u);
  EXPECT_EQ(cold.backend_stats().multiplexed, 1u);
  const auto expected = cold.search(queries, 2);
  test::expect_exact_knn_results(data, queries, 2, expected, "cold");

  core::ApKnnEngine warm(data, opt);
  EXPECT_EQ(cache_stats(warm).hits, 1u);
  ASSERT_EQ(warm.bit_parallel_configurations(), 1u);
  EXPECT_EQ(warm.search(queries, 2), expected);

  // Slice count is part of the key: same data, different slices must not
  // serve the cached 7-slice program (slot collision => invalidation), and
  // neither may the base design.
  opt.multiplex_slices = 3;
  core::ApKnnEngine other(data, opt);
  EXPECT_EQ(cache_stats(other).invalidations, 1u);
  ASSERT_EQ(other.bit_parallel_configurations(), 1u);
  test::expect_exact_knn_results(data, queries, 2, other.search(queries, 2),
                                 "3-slice");
  core::ApKnnEngine base(data, bit_options(dir));
  EXPECT_EQ(cache_stats(base).invalidations, 1u);

  // Dataset mutation invalidates as well.
  core::ApKnnEngine three_again(data, opt);
  EXPECT_EQ(cache_stats(three_again).invalidations, 1u);  // slot held base
  EXPECT_EQ(core::ApKnnEngine(data, opt).backend_stats().artifact.hits, 1u);
  data.set(0, 0, !data.get(0, 0));
  core::ApKnnEngine mutated(data, opt);
  EXPECT_EQ(cache_stats(mutated).invalidations, 1u);
  test::expect_exact_knn_results(data, queries, 2, mutated.search(queries, 2),
                                 "post-mutation");

  // Without a cache directory the whole machinery stays off.
  opt.artifact_cache_dir.clear();
  core::ApKnnEngine off(data, opt);
  EXPECT_FALSE(cache_stats(off).any());
}

}  // namespace
}  // namespace apss
