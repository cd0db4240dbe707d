#include "core/opt/stream_multiplexing.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace apss::core {
namespace {

/// Byte j of kSpreadBits[b] = bit j of b: 8 query bits spread over bit 0
/// of 8 data symbols.
constexpr std::array<std::uint64_t, 256> kSpreadBits = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::uint64_t b = 0; b < 256; ++b) {
    for (std::size_t j = 0; j < 8; ++j) {
      table[b] |= ((b >> j) & 1) << (8 * j);
    }
  }
  return table;
}();

}  // namespace

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
  // Each whole byte of the rows fills 8 symbols with one table lookup per
  // query; the last dims % 8 dimensions go bit by bit.
  const std::size_t first = out.size();
  out.resize(first + spec_.dims, Alphabet::data(0));
  std::uint8_t* data = out.data() + first;
  const std::size_t whole = spec_.dims - spec_.dims % 8;
  for (std::size_t i = 0; i < whole; i += 8) {
    std::uint64_t symbols = 0;
    for (std::size_t s = 0; s < count; ++s) {
      const std::uint64_t byte = (queries.row(begin + s)[i >> 6] >> (i & 63)) &
                                 0xff;
      symbols |= kSpreadBits[byte] << s;
    }
    for (std::size_t j = 0; j < 8; ++j) {
      data[i + j] = static_cast<std::uint8_t>(symbols >> (8 * j));
    }
  }
  for (std::size_t s = 0; s < count; ++s) {
    const auto row = queries.row(begin + s);
    for (std::size_t i = whole; i < spec_.dims; ++i) {
      data[i] |=
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
