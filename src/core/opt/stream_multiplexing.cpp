#include "core/opt/stream_multiplexing.hpp"

#include <algorithm>
#include <stdexcept>

namespace apss::core {

std::vector<MacroLayout> build_multiplexed_network(
    anml::AutomataNetwork& network, const knn::BinaryDataset& data,
    std::size_t slices, const HammingMacroOptions& base_options,
    std::size_t begin, std::size_t count) {
  if (slices == 0 || slices > kMaxSlices) {
    throw std::invalid_argument("build_multiplexed_network: slices must be 1..7");
  }
  if (begin > data.size()) {
    throw std::invalid_argument(
        "build_multiplexed_network: begin out of bounds");
  }
  count = std::min(count, data.size() - begin);
  std::vector<MacroLayout> layouts;
  layouts.reserve(count * slices);
  for (std::size_t v = begin; v < begin + count; ++v) {
    for (std::size_t s = 0; s < slices; ++s) {
      HammingMacroOptions opt = base_options;
      opt.bit_slice = s;
      layouts.push_back(append_hamming_macro(
          network, data.vector(v),
          MuxReportCode::encode(static_cast<std::uint32_t>(v), s), opt));
    }
  }
  return layouts;
}

}  // namespace apss::core
