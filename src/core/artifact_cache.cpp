#include "core/artifact_cache.hpp"

#include <chrono>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>

#include "apsim/simulator.hpp"
#include "util/fault_injection.hpp"

namespace apss::core {
namespace {

/// Bounded exponential backoff for transient cache I/O: 1 + kIoRetries
/// attempts, sleeping 1, 2, 4... ms between them. The cache is an
/// optimization — after the budget it degrades to compile-every-time, it
/// never fails the engine.
constexpr std::size_t kIoRetries = 3;

void backoff_sleep(std::size_t attempt) {
  std::this_thread::sleep_for(std::chrono::milliseconds(1u << attempt));
}

/// Damage (vs. staleness): these codes mean the BYTES are bad, so the file
/// is worth keeping for a post-mortem. kVersionMismatch and key mismatches
/// are honest staleness — the artifact is fine, just not for us — and are
/// plainly overwritten instead.
bool is_corruption(artifact::LoadErrorCode code) noexcept {
  switch (code) {
    case artifact::LoadErrorCode::kTruncated:
    case artifact::LoadErrorCode::kBadMagic:
    case artifact::LoadErrorCode::kHashMismatch:
    case artifact::LoadErrorCode::kMalformed:
      return true;
    default:
      return false;
  }
}

/// Renames a damaged slot file aside (overwriting any earlier quarantine
/// of the same slot — latest damage wins). Rename, not delete: the
/// operator can inspect what corrupted. Best-effort; returns success.
bool quarantine_slot(const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(path, path + ".quarantined", ec);
  return !ec;
}

}  // namespace

std::string artifact_cache_path(const std::string& dir,
                                std::string_view builder, std::size_t slot) {
  std::string index = std::to_string(slot);
  if (index.size() < 4) {
    index.insert(0, 4 - index.size(), '0');
  }
  std::string path = dir;
  if (!path.empty() && path.back() != '/') {
    path += '/';
  }
  path.append(builder);
  path += ".config";
  path += index;
  path += ".apss-art";
  return path;
}

void hash_dataset_slice(util::Fnv1a64& hasher, const knn::BinaryDataset& data,
                        std::size_t begin, std::size_t count) {
  hasher.update_u64(count);
  hasher.update_u64(data.dims());
  hasher.update_u64(data.word_stride());
  for (std::size_t i = begin; i < begin + count; ++i) {
    for (const std::uint64_t word : data.row(i)) {
      hasher.update_u64(word);
    }
  }
}

void hash_macro_options(util::Fnv1a64& hasher,
                        const HammingMacroOptions& options) {
  hasher.update_u64(options.collector_fan_in);
  hasher.update_u64(options.max_counter_fan_in);
  hasher.update_u64(options.bit_slice);
}

void hash_sim_options(util::Fnv1a64& hasher, const apsim::SimOptions& options) {
  hasher.update_u32(options.max_counter_increment);
  hasher.update(static_cast<std::uint8_t>(options.allow_dynamic_threshold));
}

CachedProgram try_load_program(const std::string& path,
                               std::uint64_t expected_key,
                               std::uint64_t expected_lanes,
                               std::uint64_t expected_dims) {
  CachedProgram out;
  artifact::LoadResult loaded;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      util::FaultInjector::check(util::kFaultArtifactRead);
      loaded = artifact::load(path);
    } catch (const util::InjectedFault& fault) {
      // The injector models a transient I/O failure; route it through the
      // same typed-error path a real EIO would take.
      loaded = artifact::LoadResult{};
      loaded.error = {artifact::LoadErrorCode::kIoError, fault.what()};
    }
    if (loaded || loaded.error.code != artifact::LoadErrorCode::kIoError ||
        attempt >= kIoRetries) {
      break;
    }
    ++out.io_retries;
    backoff_sleep(attempt);
  }
  if (!loaded) {
    if (loaded.error.code == artifact::LoadErrorCode::kNotFound) {
      out.outcome = ArtifactOutcome::kMiss;
    } else {
      out.outcome = ArtifactOutcome::kInvalidated;
      out.detail = std::string(artifact::to_string(loaded.error.code)) + ": " +
                   loaded.error.detail;
      if (is_corruption(loaded.error.code)) {
        out.quarantined = quarantine_slot(path);
      }
    }
    return out;
  }
  const artifact::Artifact& art = *loaded.artifact;
  if (art.meta.key_hash != expected_key) {
    out.outcome = ArtifactOutcome::kInvalidated;
    out.detail = "compile-input key mismatch (stale artifact)";
    return out;
  }
  if (art.program->macro_count() != expected_lanes ||
      art.program->dims() != expected_dims) {
    out.outcome = ArtifactOutcome::kInvalidated;
    out.detail = "program shape mismatch despite matching key";
    return out;
  }
  out.outcome = ArtifactOutcome::kHit;
  out.program = art.program;
  return out;
}

bool store_program(const std::string& path, const artifact::ArtifactMeta& meta,
                   std::shared_ptr<const apsim::BatchProgram> program,
                   std::string* error, std::size_t* io_retries) {
  artifact::Artifact art;
  art.meta = meta;
  art.program = std::move(program);
  for (std::size_t attempt = 0;; ++attempt) {
    bool ok = false;
    try {
      util::FaultInjector::check(util::kFaultArtifactWrite);
      ok = artifact::save(path, art, error);
    } catch (const util::InjectedFault& fault) {
      if (error != nullptr) {
        *error = fault.what();
      }
    }
    if (ok || attempt >= kIoRetries) {
      return ok;
    }
    if (io_retries != nullptr) {
      ++*io_retries;
    }
    backoff_sleep(attempt);
  }
}

std::size_t sweep_stale_artifact_tmp(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return 0;
  }
  std::size_t swept = 0;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    // Only the save path's own temp pattern ("<slot>.apss-art.tmp.<n>"):
    // anything else in the directory — including quarantined slots — is
    // not ours to touch.
    if (name.find(".apss-art.tmp.") == std::string::npos) {
      continue;
    }
    std::error_code remove_ec;
    if (std::filesystem::remove(entry.path(), remove_ec) && !remove_ec) {
      ++swept;
    }
  }
  return swept;
}

}  // namespace apss::core
