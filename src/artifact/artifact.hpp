#pragma once
// Versioned on-disk artifacts for compiled automata programs — the
// ahead-of-time compile cache (ROADMAP item 3, after Eudoxus: a compiler
// producing a compact executable automata format consumed by a thin
// runtime).
//
// An artifact stores one compiled apsim::BatchProgram (any of the three
// macro families: hamming, packed, multiplexed) together with enough
// provenance to validate it on load: the producing pipeline, a digest of
// the source ANML network (anml::network_digest), the dataset slice it
// encodes, and the builder's compile-input key hash. The byte-level format
// is specified in docs/ARTIFACTS.md; the contract that matters here:
//
//  * save(path, ...) is atomic (temp file + rename): readers never observe
//    a half-written artifact.
//  * load(path)/decode(bytes) performs strict bounds-checked decoding.
//    Truncated, corrupt, version-mismatched or hash-mismatched input
//    yields a TYPED LoadError — never undefined behavior, a crash, or a
//    silently wrong program. The corruption fuzz suite
//    (tests/artifact/artifact_corruption_test.cpp) flips/truncates every
//    byte offset under ASan+UBSan to hold this line.
//  * A decoded program additionally passes BatchProgram::from_state, which
//    revalidates every structural invariant the compiler establishes, so a
//    loaded program is exactly as trustworthy as a freshly compiled one.
//
// Consumers: core::ApKnnEngine (every macro family: base, packed and
// multiplexed designs) compiles on a miss and loads on a hit through
// EngineOptions::artifact_cache_dir (see core/artifact_cache.hpp), and
// `apss_cli knn --save-artifact/--load-artifact` moves single
// configurations by hand.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apsim/batch_simulator.hpp"

namespace apss::artifact {

/// First 8 bytes of every artifact file.
inline constexpr std::uint8_t kMagic[8] = {'A', 'P', 'S', 'S', '-', 'A', 'R', 'T'};

/// Bumped on any byte-level layout change; loaders accept exactly one
/// version (docs/ARTIFACTS.md keeps the history).
inline constexpr std::uint32_t kFormatVersion = 1;

/// Longest builder / network-name strings an artifact may carry.
inline constexpr std::size_t kMaxBuilderLength = 256;
inline constexpr std::size_t kMaxNetworkNameLength = 4096;

/// Why a load failed. Every rejection path maps to exactly one code; the
/// detail string narrows it down for humans.
enum class LoadErrorCode : std::uint8_t {
  kNotFound,         ///< no file at the given path (a cache MISS, not damage)
  kIoError,          ///< the file exists but could not be read
  kTruncated,        ///< input ends before a field it promises
  kBadMagic,         ///< not an artifact file
  kVersionMismatch,  ///< artifact written by a different format version
  kHashMismatch,     ///< stored content hash != recomputed (corruption)
  kMalformed,        ///< structure violates the format or program invariants
};

const char* to_string(LoadErrorCode code) noexcept;

struct LoadError {
  LoadErrorCode code = LoadErrorCode::kIoError;
  std::string detail;
};

/// Provenance and identity of one compiled configuration.
struct ArtifactMeta {
  /// The builder's compile-input hash (dataset slice + layout + compiler
  /// options, see core/artifact_cache.hpp). Cache consumers recompute the
  /// expected key from their inputs and reject on mismatch — the
  /// invalidation rule.
  std::uint64_t key_hash = 0;
  /// anml::network_digest of the source design at save time: ties the
  /// program to the serialized ANML network it was compiled from.
  std::uint64_t network_digest = 0;
  std::string builder;       ///< producing pipeline, e.g. "apss-knn-engine"
  std::string network_name;  ///< AutomataNetwork::name of the source design
  std::uint64_t network_elements = 0;
  std::uint64_t network_edges = 0;
  std::uint64_t dataset_begin = 0;  ///< first global vector id encoded
  std::uint64_t dataset_count = 0;  ///< vectors in this configuration

  bool operator==(const ArtifactMeta&) const = default;
};

/// One loadable unit: metadata + the compiled program.
struct Artifact {
  ArtifactMeta meta;
  std::shared_ptr<const apsim::BatchProgram> program;
};

/// Outcome of load()/decode(): `artifact` on success, a typed `error`
/// otherwise (never both, never neither).
struct LoadResult {
  std::shared_ptr<const Artifact> artifact;
  LoadError error;

  explicit operator bool() const noexcept { return artifact != nullptr; }
};

/// Serializes to the docs/ARTIFACTS.md byte format. The artifact must hold
/// a program; throws std::invalid_argument on a null program or oversized
/// meta strings (producer bugs, not data errors).
std::vector<std::uint8_t> encode(const Artifact& artifact);

/// Strict decode of encode()'s output. See LoadErrorCode for the
/// rejection taxonomy; kNotFound is never produced here.
LoadResult decode(std::span<const std::uint8_t> bytes);

/// encode() + atomic write (temp file in the target directory + rename).
/// Returns false and fills *error on I/O failure.
bool save(const std::string& path, const Artifact& artifact,
          std::string* error = nullptr);

/// Reads `path` and decode()s it. A missing file reports kNotFound.
LoadResult load(const std::string& path);

}  // namespace apss::artifact
