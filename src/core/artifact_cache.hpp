#pragma once
// Compile-cache glue between the engine and src/artifact: outcome/counter
// types surfaced through ApKnnEngine::backend_stats(), the slot-file naming
// scheme, the compile-input key hash helpers, and the shared load/store
// flow.
//
// Cache protocol (docs/ARTIFACTS.md "Cache directories"):
//
//  * One SLOT FILE per configuration, named by builder + configuration
//    index — NOT content-addressed. A dataset or option change therefore
//    lands on the same file, fails the key check, and is reported as an
//    INVALIDATION (recompile + overwrite) rather than silently growing the
//    directory while the stale artifact lingers.
//  * The compile-input KEY covers everything the compiled program depends
//    on: a builder tag, the artifact format version, the dataset slice
//    (layout and raw row bytes), and the compiler options. Equal keys =>
//    the cached program is the program a fresh compile would produce.
//  * try_load_program accepts an artifact only if it decodes cleanly
//    (src/artifact's typed-error gauntlet), the key matches, and the
//    program's lane/dimension shape matches the expectation — belt and
//    suspenders on top of the key.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "artifact/artifact.hpp"
#include "core/hamming_macro.hpp"
#include "knn/dataset.hpp"
#include "util/fnv.hpp"

namespace apss::apsim {
struct SimOptions;  // apsim/simulator.hpp
}  // namespace apss::apsim

namespace apss::core {

/// What the cache did for one configuration.
enum class ArtifactOutcome : std::uint8_t {
  kDisabled,     ///< no cache directory configured for this configuration
  kHit,          ///< valid artifact loaded — compile (and network build) skipped
  kMiss,         ///< no artifact on disk — compiled fresh, artifact saved
  kInvalidated,  ///< artifact present but stale or damaged — recompiled, overwritten
};

/// Aggregated cache counters, embedded in BackendCompileStats and printed
/// by `apss_cli knn --artifact-cache=DIR`.
struct ArtifactCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t invalidations = 0;
  /// Transient-I/O retry attempts (load and save; bounded exponential
  /// backoff, docs/ROBUSTNESS.md "Cache retry protocol").
  std::size_t io_retries = 0;
  /// Corrupt slot files renamed to "<slot>.quarantined" — kept for
  /// post-mortems, never deleted — before the recompile overwrote the slot.
  std::size_t quarantined = 0;
  /// Leaked "*.apss-art.tmp.*" files (a crash between write and rename)
  /// swept when the cache directory was opened.
  std::size_t stale_tmp_swept = 0;

  bool operator==(const ArtifactCacheStats&) const = default;

  bool any() const noexcept {
    return hits + misses + invalidations + io_retries + quarantined +
               stale_tmp_swept >
           0;
  }

  void record(ArtifactOutcome outcome) noexcept {
    switch (outcome) {
      case ArtifactOutcome::kDisabled:
        break;
      case ArtifactOutcome::kHit:
        ++hits;
        break;
      case ArtifactOutcome::kMiss:
        ++misses;
        break;
      case ArtifactOutcome::kInvalidated:
        ++invalidations;
        break;
    }
  }

  void merge(const ArtifactCacheStats& o) noexcept {
    hits += o.hits;
    misses += o.misses;
    invalidations += o.invalidations;
    io_retries += o.io_retries;
    quarantined += o.quarantined;
    stale_tmp_swept += o.stale_tmp_swept;
  }
};

/// Slot file for configuration `slot` of `builder` inside `dir`
/// (e.g. "<dir>/apss-knn-engine.config0003.apss-art").
std::string artifact_cache_path(const std::string& dir,
                                std::string_view builder, std::size_t slot);

// --- Compile-input key ingredients -----------------------------------------
// Every helper feeds one streaming hasher; ApKnnEngine::artifact_key
// composes them in a pinned order (ARTIFACTS.md).

/// Layout (count, dims, word stride) and raw row bytes of the slice
/// [begin, begin + count) of `data`.
void hash_dataset_slice(util::Fnv1a64& hasher, const knn::BinaryDataset& data,
                        std::size_t begin, std::size_t count);

void hash_macro_options(util::Fnv1a64& hasher,
                        const HammingMacroOptions& options);

void hash_sim_options(util::Fnv1a64& hasher, const apsim::SimOptions& options);

/// Load-path result: `program` is non-null exactly when outcome == kHit.
struct CachedProgram {
  std::shared_ptr<const apsim::BatchProgram> program;
  ArtifactOutcome outcome = ArtifactOutcome::kDisabled;
  /// Why the artifact was invalidated (typed load error or key/shape
  /// mismatch); empty on hit/miss.
  std::string detail;
  /// Transient-I/O retry attempts spent on this load.
  std::size_t io_retries = 0;
  /// True when a corrupt slot file was renamed aside (never deleted).
  bool quarantined = false;
};

/// Loads the artifact at `path` and validates it against the expected
/// compile-input key and program shape. kNotFound => kMiss; any other load
/// error, a key mismatch, or a shape mismatch => kInvalidated.
///
/// Robustness (docs/ROBUSTNESS.md): transient I/O errors — including the
/// "artifact.read" fault site — are retried with bounded exponential
/// backoff before the load degrades to kInvalidated (compile fresh); a
/// slot file rejected as CORRUPT (truncated / bad magic / hash mismatch /
/// malformed) is QUARANTINED by renaming it to "<path>.quarantined" so the
/// bytes survive for a post-mortem while the recompile overwrites the slot.
CachedProgram try_load_program(const std::string& path,
                               std::uint64_t expected_key,
                               std::uint64_t expected_lanes,
                               std::uint64_t expected_dims);

/// Saves `program` + `meta` to `path` (atomic, see artifact::save), with
/// the same bounded-backoff retry on failure (and the "artifact.write"
/// fault site). `io_retries`, when non-null, receives the attempts spent.
bool store_program(const std::string& path, const artifact::ArtifactMeta& meta,
                   std::shared_ptr<const apsim::BatchProgram> program,
                   std::string* error = nullptr,
                   std::size_t* io_retries = nullptr);

/// Removes "*.apss-art.tmp.*" files from `dir` — temp files leaked when a
/// save crashed between write and rename — and returns how many were
/// swept. Called when an engine opens a cache directory; counted in
/// ArtifactCacheStats::stale_tmp_swept. Quarantined files are NOT swept.
std::size_t sweep_stale_artifact_tmp(const std::string& dir);

}  // namespace apss::core
