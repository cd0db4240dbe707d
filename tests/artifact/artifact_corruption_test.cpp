// Corruption fuzz suite for src/artifact: deterministic single-byte flips
// at EVERY offset, truncations at EVERY length, and targeted malformations
// must each come back as a typed LoadError — never a crash, hang, or a
// silently accepted program. CI runs this binary under ASan+UBSan
// (APSS_SANITIZE=address,undefined), so any out-of-bounds read or UB in
// the decoder fails the build even when it happens not to change the
// returned error.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "apsim/batch_simulator.hpp"
#include "apss_test_support.hpp"
#include "artifact/artifact.hpp"
#include "core/hamming_macro.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace apss {
namespace {

using artifact::LoadErrorCode;

/// One small-but-real artifact (hamming family, 2 words of payload rows).
std::vector<std::uint8_t> make_artifact_bytes() {
  util::Rng rng(7);
  const auto data = test::random_dataset(rng, 5, 20);
  anml::AutomataNetwork net("fuzz");
  std::vector<core::MacroLayout> layouts;
  for (std::size_t i = 0; i < data.size(); ++i) {
    layouts.push_back(core::append_hamming_macro(
        net, data.vector(i), static_cast<std::uint32_t>(i), {}));
  }
  std::string reason;
  artifact::Artifact a;
  a.program = apsim::BatchProgram::try_compile(net, layouts, {}, &reason);
  EXPECT_NE(a.program, nullptr) << reason;
  a.meta.key_hash = 0xabcdef;
  a.meta.builder = "fuzz-test";
  a.meta.network_name = "fuzz";
  a.meta.dataset_count = data.size();
  return artifact::encode(a);
}

/// Recomputes the stored content hash after a deliberate payload edit, so
/// the edit reaches the structural validators instead of stopping at the
/// hash check.
void patch_hash(std::vector<std::uint8_t>& bytes) {
  util::Fnv1a64 hasher;
  hasher.update(std::span<const std::uint8_t>(bytes).subspan(24));
  const std::uint64_t h = hasher.digest();
  for (int i = 0; i < 8; ++i) {
    bytes[16 + i] = static_cast<std::uint8_t>(h >> (8 * i));
  }
}

TEST(ArtifactCorruption, EverySingleByteFlipIsRejectedTyped) {
  const std::vector<std::uint8_t> good = make_artifact_bytes();
  ASSERT_TRUE(artifact::decode(good));
  util::Rng rng(1234);
  for (std::size_t offset = 0; offset < good.size(); ++offset) {
    std::vector<std::uint8_t> bad = good;
    bad[offset] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    const artifact::LoadResult r = artifact::decode(bad);
    ASSERT_FALSE(r) << "flip at offset " << offset << " was accepted";
    // The error is typed and region-appropriate.
    if (offset < 8) {
      EXPECT_EQ(r.error.code, LoadErrorCode::kBadMagic) << offset;
    } else if (offset < 12) {
      EXPECT_EQ(r.error.code, LoadErrorCode::kVersionMismatch) << offset;
    } else if (offset < 16) {
      EXPECT_EQ(r.error.code, LoadErrorCode::kMalformed) << offset;
    } else {
      // Hash field or payload: either way the stored and computed content
      // hashes no longer agree.
      EXPECT_EQ(r.error.code, LoadErrorCode::kHashMismatch) << offset;
    }
    EXPECT_FALSE(r.error.detail.empty()) << offset;
  }
}

TEST(ArtifactCorruption, EveryTruncationIsRejectedTyped) {
  const std::vector<std::uint8_t> good = make_artifact_bytes();
  for (std::size_t len = 0; len < good.size(); ++len) {
    const artifact::LoadResult r = artifact::decode(
        std::span<const std::uint8_t>(good.data(), len));
    ASSERT_FALSE(r) << "truncation to " << len << " bytes was accepted";
    if (len < 24) {
      EXPECT_EQ(r.error.code, LoadErrorCode::kTruncated) << len;
    } else {
      EXPECT_EQ(r.error.code, LoadErrorCode::kHashMismatch) << len;
    }
  }
}

TEST(ArtifactCorruption, TrailingBytesAreMalformedEvenWithValidHash) {
  std::vector<std::uint8_t> bytes = make_artifact_bytes();
  bytes.push_back(0);
  patch_hash(bytes);  // hash is honest about the extra byte...
  const artifact::LoadResult r = artifact::decode(bytes);
  ASSERT_FALSE(r);  // ...but the payload must consume the input EXACTLY.
  EXPECT_EQ(r.error.code, LoadErrorCode::kMalformed);
}

TEST(ArtifactCorruption, OversizedStringLengthIsMalformed) {
  std::vector<std::uint8_t> bytes = make_artifact_bytes();
  // The builder length field sits right after key_hash + network_digest.
  const std::size_t builder_len_at = 24 + 8 + 8;
  bytes[builder_len_at + 3] = 0xff;  // length >= 2^24 > kMaxBuilderLength
  patch_hash(bytes);
  const artifact::LoadResult r = artifact::decode(bytes);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error.code, LoadErrorCode::kMalformed);
}

TEST(ArtifactCorruption, HostileShapeCannotDriveHugeAllocation) {
  // Craft a payload announcing 2^26 lanes x 2^20 dims with a hash that
  // checks out: the decoder must bail on the byte budget (kTruncated), not
  // allocate terabytes or overflow the size arithmetic.
  const std::vector<std::uint8_t> good = make_artifact_bytes();
  std::vector<std::uint8_t> bytes = good;
  std::size_t at = 24 + 8 + 8;                       // builder length field
  const auto u32_at = [&](std::size_t pos) {
    return static_cast<std::uint32_t>(bytes[pos]) |
           static_cast<std::uint32_t>(bytes[pos + 1]) << 8 |
           static_cast<std::uint32_t>(bytes[pos + 2]) << 16 |
           static_cast<std::uint32_t>(bytes[pos + 3]) << 24;
  };
  at += 4 + u32_at(at);                              // skip builder
  at += 4 + u32_at(at);                              // skip network name
  at += 8 * 4;                                       // meta u64 fields
  at += 1;                                           // family tag
  for (int i = 0; i < 8; ++i) {                      // lanes := 2^26
    bytes[at + i] = i == 3 ? 0x04 : 0x00;
  }
  for (int i = 0; i < 8; ++i) {                      // dims := 2^20
    bytes[at + 8 + i] = i == 2 ? 0x10 : 0x00;
  }
  patch_hash(bytes);
  const artifact::LoadResult r = artifact::decode(bytes);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error.code, LoadErrorCode::kTruncated);
}

TEST(ArtifactCorruption, FromStateRejectsInvariantViolations) {
  util::Rng rng(9);
  const auto data = test::random_dataset(rng, 6, 18);
  anml::AutomataNetwork net("inv");
  std::vector<core::MacroLayout> layouts;
  for (std::size_t i = 0; i < data.size(); ++i) {
    layouts.push_back(core::append_hamming_macro(
        net, data.vector(i), static_cast<std::uint32_t>(i), {}));
  }
  std::string reason;
  const auto program =
      apsim::BatchProgram::try_compile(net, layouts, {}, &reason);
  ASSERT_NE(program, nullptr) << reason;
  const apsim::BatchProgramState good = program->state();
  ASSERT_NE(apsim::BatchProgram::from_state(good), nullptr);

  const auto rejects = [](apsim::BatchProgramState s, const char* what) {
    std::string error;
    EXPECT_EQ(apsim::BatchProgram::from_state(s, &error), nullptr) << what;
    EXPECT_FALSE(error.empty()) << what;
  };
  {
    apsim::BatchProgramState s = good;
    s.dim_rows.pop_back();
    rejects(s, "short dim_rows");
  }
  {
    apsim::BatchProgramState s = good;
    s.dim_rows[0] |= s.dim_rows[s.class_count == 1 ? 0 : 1];
    if (s.class_count > 1 && (good.dim_rows[0] | good.dim_rows[1]) != good.dim_rows[0]) {
      rejects(s, "overlapping partition rows");
    }
  }
  {
    apsim::BatchProgramState s = good;
    s.sof = s.eof;
    rejects(s, "sof == eof");
  }
  {
    apsim::BatchProgramState s = good;
    s.lanes = 0;
    rejects(s, "zero lanes");
  }
  {
    apsim::BatchProgramState s = good;
    s.report_code.pop_back();
    rejects(s, "short report_code");
  }
  {
    apsim::BatchProgramState s = good;
    s.sym_classes[0] = 0xffff;  // bits beyond class_count
    rejects(s, "classifier bits outside classes");
  }
  {
    apsim::BatchProgramState s = good;
    // A lane bit beyond the live-lane tail in some dimension row.
    s.dim_rows[0] = ~std::uint64_t{0};
    rejects(s, "bits beyond live lanes");
  }
}

TEST(ArtifactCorruption, LoadReportsNotFoundAndIoErrorDistinctly) {
  const std::string dir = ::testing::TempDir() + "apss_artifact_io";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const artifact::LoadResult missing = artifact::load(dir + "/nope.apss-art");
  ASSERT_FALSE(missing);
  EXPECT_EQ(missing.error.code, LoadErrorCode::kNotFound);

  // A directory exists but is not readable as a file.
  const artifact::LoadResult directory = artifact::load(dir);
  ASSERT_FALSE(directory);
  EXPECT_NE(directory.error.code, LoadErrorCode::kNotFound);
}

TEST(ArtifactCorruption, EmptyAndForeignFilesAreTyped) {
  EXPECT_EQ(artifact::decode({}).error.code, LoadErrorCode::kTruncated);
  const std::vector<std::uint8_t> xml = {'<', '?', 'x', 'm', 'l', ' ', 'v',
                                         '1', '.', '0', '?', '>'};
  EXPECT_EQ(artifact::decode(xml).error.code, LoadErrorCode::kBadMagic);
}

}  // namespace
}  // namespace apss
