#pragma once
// Flag parsing shared by the example binaries (apss_cli, apss_serve).
//
// Both expose the same engine-configuration surface — --backend,
// --threads, --artifact-cache — plus --inject-fault for
// driving the deterministic fault injector from the shell. Parsing lives
// here once so the two binaries cannot drift: a spelling accepted by one
// is accepted, with identical semantics, by the other.
//
// Header-only on purpose: these are leaf helpers for example code, not
// library surface.

#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "util/fault_injection.hpp"

namespace apss::cli {

/// Strict non-negative integer parse (no signs, suffixes, empty values).
inline bool parse_uint(const std::string& value, unsigned long long* out) {
  if (value.empty() || value[0] < '0' || value[0] > '9') {
    return false;
  }
  char* end = nullptr;
  *out = std::strtoull(value.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

/// Strict positive double parse ("--deadline-ms=12.5" and friends).
inline bool parse_positive_double(const std::string& value, double* out) {
  if (value.empty()) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || v <= 0) {
    return false;
  }
  *out = v;
  return true;
}

/// The engine flags both binaries accept.
struct EngineFlags {
  core::SimulationBackend backend = core::SimulationBackend::kCycleAccurate;
  std::size_t threads = 0;  ///< 0 = all hardware threads
  std::string artifact_cache_dir;

  /// Copies the parsed flags onto engine options (leaves every field these
  /// flags don't cover untouched).
  void apply(core::EngineOptions* options) const {
    options->backend = backend;
    options->threads = threads;
    options->artifact_cache_dir = artifact_cache_dir;
  }
};

enum class FlagParse {
  kNotMine,  ///< not one of the shared engine flags; caller handles it
  kParsed,   ///< consumed into EngineFlags
  kError,    ///< matched a shared flag but the value is malformed
};

/// Tries `arg` against the shared engine flags. On kError, `*error` holds
/// a ready-to-print diagnostic.
inline FlagParse try_parse_engine_flag(const std::string& arg,
                                       EngineFlags* flags,
                                       std::string* error) {
  unsigned long long v = 0;
  if (arg.rfind("--backend=", 0) == 0) {
    const std::string value = arg.substr(10);
    if (value == "bit" || value == "bit-parallel" || value == "bit_parallel") {
      flags->backend = core::SimulationBackend::kBitParallel;
    } else if (value == "cycle" || value == "cycle-accurate") {
      flags->backend = core::SimulationBackend::kCycleAccurate;
    } else {
      *error = "unknown backend '" + value + "'";
      return FlagParse::kError;
    }
    return FlagParse::kParsed;
  }
  if (arg.rfind("--threads=", 0) == 0) {
    // 0 is legal here (= all hardware threads).
    if (!parse_uint(arg.substr(10), &v)) {
      *error =
          "--threads needs a non-negative integer (0 = all hardware threads)";
      return FlagParse::kError;
    }
    flags->threads = static_cast<std::size_t>(v);
    return FlagParse::kParsed;
  }
  if (arg.rfind("--artifact-cache=", 0) == 0) {
    flags->artifact_cache_dir = arg.substr(17);
    return FlagParse::kParsed;
  }
  return FlagParse::kNotMine;
}

/// "--inject-fault=SITE[:HIT[:COUNT[:KEY]]]" -> arms the process-global
/// fault injector before the engine is built, so the shell can drive any
/// failure path (scripts/cli_exit_codes_test.sh, the CI soak smoke).
inline bool arm_injected_fault(const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) {
      break;
    }
    start = colon + 1;
  }
  if (parts[0].empty() || parts.size() > 4) {
    return false;
  }
  util::FaultInjector::Plan plan;
  unsigned long long v = 0;
  if (parts.size() > 1) {
    if (!parse_uint(parts[1], &v) || v == 0) {
      return false;
    }
    plan.fail_on_hit = v;
  }
  if (parts.size() > 2) {
    if (!parse_uint(parts[2], &v) || v == 0) {
      return false;
    }
    plan.fail_count = v;
  }
  if (parts.size() > 3) {
    if (!parse_uint(parts[3], &v)) {
      return false;
    }
    plan.match_key = static_cast<std::int64_t>(v);
  }
  plan.message = "injected via --inject-fault";
  util::FaultInjector::instance().arm(parts[0], plan);
  return true;
}

}  // namespace apss::cli
