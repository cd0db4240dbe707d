#pragma once
// Symbol-stream multiplexing (Sec. VI-B, Fig. 6): the 8-bit symbol stream
// carries one query bit per BIT SLICE, so up to 7 queries ride one stream
// (bit 7 is reserved to distinguish control symbols). Each dataset vector
// gets one macro per active slice whose matching states perform the ternary
// match 0b*......b on their slice — the TCAM-style encoding of the paper.
// core::ApKnnEngine runs this design when EngineOptions::multiplex_slices
// is set; this header holds its builder and report codes, and
// core::SymbolStreamEncoder (core/stream.hpp) writes its frames.

#include <cstdint>
#include <limits>
#include <vector>

#include "anml/network.hpp"
#include "core/design.hpp"
#include "core/hamming_macro.hpp"
#include "core/stream.hpp"
#include "knn/dataset.hpp"

namespace apss::core {

/// Report-code packing for multiplexed designs: code = vector_id * 8 + slice.
struct MuxReportCode {
  static std::uint32_t encode(std::uint32_t vector_id, std::size_t slice) {
    return vector_id * 8 + static_cast<std::uint32_t>(slice);
  }
  static std::uint32_t vector_id(std::uint32_t code) { return code / 8; }
  static std::size_t slice(std::uint32_t code) { return code % 8; }
};

/// Builds macros for dataset vectors [begin, begin + count) (default: all)
/// replicated across `slices` bit slices (Fig. 6: "NFA STEs are replicated
/// and encoded to discriminate among different bit slices"); slice s of
/// vector v reports MuxReportCode::encode(v, s). Returns one layout per
/// (vector, slice), vector-major.
std::vector<MacroLayout> build_multiplexed_network(
    anml::AutomataNetwork& network, const knn::BinaryDataset& data,
    std::size_t slices, const HammingMacroOptions& base_options = {},
    std::size_t begin = 0,
    std::size_t count = std::numeric_limits<std::size_t>::max());

}  // namespace apss::core
