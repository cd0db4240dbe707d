#pragma once
// Symbol-stream multiplexing (Sec. VI-B, Fig. 6): the 8-bit symbol stream
// carries one query bit per BIT SLICE, so up to 7 queries ride one stream
// (bit 7 is reserved to distinguish control symbols). Each dataset vector
// gets one macro per active slice whose matching states perform the ternary
// match 0b*......b on their slice — the TCAM-style encoding of the paper.
// core::ApKnnEngine runs this design when EngineOptions::multiplex_slices
// is set; this header holds its builder, report codes and frame encoder.

#include <cstdint>
#include <limits>
#include <vector>

#include "anml/network.hpp"
#include "core/design.hpp"
#include "core/hamming_macro.hpp"
#include "knn/dataset.hpp"

namespace apss::core {

inline constexpr std::size_t kMaxSlices = 7;

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

/// Encodes up to 7 parallel queries (rows of `queries`, all with the macro
/// dimensionality) into ONE multiplexed frame per query group.
class MultiplexedStreamEncoder {
 public:
  explicit MultiplexedStreamEncoder(StreamSpec spec) : spec_(spec) {}

  /// Appends one frame carrying rows [begin, begin+count) of `queries` in
  /// slices 0..count-1 to `out`. count must be 1..7. A one-query frame
  /// equals SymbolStreamEncoder's frame for that query.
  void append_group(const knn::BinaryDataset& queries, std::size_t begin,
                    std::size_t count, std::vector<std::uint8_t>& out) const;

  /// Encodes a whole query set, 7 per frame; returns the stream and the
  /// number of frames.
  std::vector<std::uint8_t> encode_batch(const knn::BinaryDataset& queries,
                                         std::size_t& frames_out) const;

  const StreamSpec& spec() const noexcept { return spec_; }

 private:
  StreamSpec spec_;
};

}  // namespace apss::core
