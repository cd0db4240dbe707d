#include "core/stream.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace apss::core {
namespace {

/// kSpreadBits[b] stored to memory = 8 bytes whose byte j is bit j of b:
/// 8 query bits spread over bit 0 of 8 data symbols, in the host's byte
/// order, so one 8-byte store writes them.
constexpr std::array<std::uint64_t, 256> kSpreadBits = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::uint64_t b = 0; b < 256; ++b) {
    std::array<std::uint8_t, 8> bytes{};
    for (std::size_t j = 0; j < 8; ++j) {
      bytes[j] = static_cast<std::uint8_t>((b >> j) & 1);
    }
    table[b] = std::bit_cast<std::uint64_t>(bytes);
  }
  return table;
}();

}  // namespace

void SymbolStreamEncoder::append_frame(const std::uint64_t* rows,
                                       std::size_t stride, std::size_t count,
                                       std::vector<std::uint8_t>& out) const {
  // Grow `out` by one frame of fill symbols, then write SOF, the data
  // symbols and EOF in place.
  const std::size_t first = out.size();
  out.resize(first + spec_.cycles_per_query(), Alphabet::kFill);
  std::uint8_t* frame = out.data() + first;
  frame[0] = Alphabet::kSof;
  frame[spec_.cycles_per_query() - 1] = Alphabet::kEof;
  // Data symbol i carries row s's bit i in bit s. Each whole byte of the
  // rows fills 8 symbols with one table lookup per row and one 8-byte
  // store (shifting a spread byte by s < 8 keeps each bit in its symbol);
  // the last dims % 8 symbols go bit by bit. Rows are reached by stride: a
  // table of row pointers adds a dependent load per row and byte.
  std::uint8_t* data = frame + 1;
  const std::size_t whole = spec_.dims - spec_.dims % 8;
  for (std::size_t i = 0; i < whole; i += 8) {
    const std::uint64_t* word = rows + (i >> 6);
    std::uint64_t symbols = 0;
    for (std::size_t s = 0; s < count; ++s) {
      const std::uint64_t byte = (word[s * stride] >> (i & 63)) & 0xff;
      symbols |= kSpreadBits[byte] << s;
    }
    std::memcpy(data + i, &symbols, sizeof(symbols));
  }
  for (std::size_t i = whole; i < spec_.dims; ++i) {
    std::uint8_t payload = 0;
    for (std::size_t s = 0; s < count; ++s) {
      payload |= static_cast<std::uint8_t>(
          ((rows[s * stride + (i >> 6)] >> (i & 63)) & 1u) << s);
    }
    data[i] = Alphabet::data(payload);
  }
}

void SymbolStreamEncoder::append_query(
    std::span<const std::uint64_t> query_words,
    std::vector<std::uint8_t>& out) const {
  append_frame(query_words.data(), 0, 1, out);
}

void SymbolStreamEncoder::append_group(const knn::BinaryDataset& queries,
                                       std::size_t begin, std::size_t count,
                                       std::vector<std::uint8_t>& out) const {
  if (count == 0 || count > kMaxSlices) {
    throw std::invalid_argument("append_group: count must be 1..7");
  }
  if (begin + count > queries.size()) {
    throw std::invalid_argument("append_group: range out of bounds");
  }
  if (queries.dims() != spec_.dims) {
    throw std::invalid_argument("append_group: query dims mismatch");
  }
  if (count == 1) {
    // The base design's frame: append_query's constant-count loop.
    append_query(queries.row(begin), out);
    return;
  }
  append_frame(queries.row(begin).data(), queries.word_stride(), count, out);
}

std::vector<std::uint8_t> SymbolStreamEncoder::encode_query(
    const util::BitVector& query) const {
  if (query.size() != spec_.dims) {
    throw std::invalid_argument("SymbolStreamEncoder: query dims mismatch");
  }
  std::vector<std::uint8_t> out;
  append_query(query.words(), out);
  return out;
}

std::vector<std::uint8_t> SymbolStreamEncoder::encode_batch(
    const knn::BinaryDataset& queries) const {
  if (queries.dims() != spec_.dims) {
    throw std::invalid_argument("SymbolStreamEncoder: query dims mismatch");
  }
  std::vector<std::uint8_t> out;
  out.reserve(queries.size() * spec_.cycles_per_query());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    append_query(queries.row(q), out);
  }
  return out;
}

std::vector<std::uint8_t> SymbolStreamEncoder::encode_multiplexed(
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
