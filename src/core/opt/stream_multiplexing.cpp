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

void MultiplexedStreamEncoder::append_group(
    const knn::BinaryDataset& queries, std::size_t begin, std::size_t count,
    std::vector<std::uint8_t>& out) const {
  if (count == 0 || count > kMaxSlices) {
    throw std::invalid_argument("encode_group: count must be 1..7");
  }
  if (begin + count > queries.size()) {
    throw std::invalid_argument("encode_group: range out of bounds");
  }
  if (queries.dims() != spec_.dims) {
    throw std::invalid_argument("encode_group: query dims mismatch");
  }
  out.reserve(out.size() + spec_.cycles_per_query());
  out.push_back(Alphabet::kSof);
  // Data symbols carry query s's bit i in bit s (Alphabet::data(0) == 0).
  const std::size_t first = out.size();
  out.resize(first + spec_.dims, Alphabet::data(0));
  for (std::size_t s = 0; s < count; ++s) {
    const auto row = queries.row(begin + s);
    for (std::size_t i = 0; i < spec_.dims; ++i) {
      out[first + i] |=
          static_cast<std::uint8_t>(((row[i >> 6] >> (i & 63)) & 1u) << s);
    }
  }
  out.insert(out.end(), spec_.fill_symbols(), Alphabet::kFill);
  out.push_back(Alphabet::kEof);
}

std::vector<std::uint8_t> MultiplexedStreamEncoder::encode_group(
    const knn::BinaryDataset& queries, std::size_t begin,
    std::size_t count) const {
  std::vector<std::uint8_t> out;
  append_group(queries, begin, count, out);
  return out;
}

std::vector<std::uint8_t> MultiplexedStreamEncoder::encode_batch(
    const knn::BinaryDataset& queries, std::size_t& frames_out) const {
  std::vector<std::uint8_t> out;
  frames_out = 0;
  for (std::size_t begin = 0; begin < queries.size(); begin += kMaxSlices) {
    append_group(queries, begin, std::min(kMaxSlices, queries.size() - begin),
                 out);
    ++frames_out;
  }
  return out;
}

}  // namespace apss::core
