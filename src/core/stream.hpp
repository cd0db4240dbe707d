#pragma once
// Symbol-stream encoding of query frames (Fig. 2c): SOF, d data symbols,
// d+L+1 fills, EOF. Symbol-stream multiplexing (Sec. VI-B, Fig. 6) spends
// more payload bits of the same frame, one per query: a frame's data
// symbol i carries query s's bit i in payload bit s.

#include <cstdint>
#include <span>
#include <vector>

#include "core/design.hpp"
#include "knn/dataset.hpp"
#include "util/bitvector.hpp"

namespace apss::core {

/// Most queries one multiplexed frame carries: payload bits 0..6 (bit 7
/// tells data symbols from control symbols).
inline constexpr std::size_t kMaxSlices = 7;

/// Encodes query vectors into the SOF / data / FILL / EOF symbol frames the
/// macros expect. Frames are concatenated back-to-back, exactly as a host
/// processor drives the device. Every frame is written by one loop, which
/// spreads each whole byte of a query row over 8 data symbols by table and
/// writes the last dims % 8 symbols bit by bit; a one-query frame is the
/// base design's frame (payload bit 0).
class SymbolStreamEncoder {
 public:
  explicit SymbolStreamEncoder(StreamSpec spec) : spec_(spec) {}

  const StreamSpec& spec() const noexcept { return spec_; }

  /// One query frame (cycles_per_query() symbols).
  std::vector<std::uint8_t> encode_query(const util::BitVector& query) const;

  /// All rows of `queries`, one frame each, concatenated.
  std::vector<std::uint8_t> encode_batch(const knn::BinaryDataset& queries) const;

  /// Appends one query frame to `out`. `query_words` holds the query's
  /// bits, dimension i in bit i % 64 of word i / 64.
  void append_query(std::span<const std::uint64_t> query_words,
                    std::vector<std::uint8_t>& out) const;

  /// Appends one multiplexed frame carrying rows [begin, begin + count) of
  /// `queries` in slices 0..count-1 to `out`. count must be 1..kMaxSlices.
  /// A one-row frame is append_query's frame for that row, written by the
  /// same constant-count loop.
  void append_group(const knn::BinaryDataset& queries, std::size_t begin,
                    std::size_t count, std::vector<std::uint8_t>& out) const;

  /// All rows of `queries`, kMaxSlices per multiplexed frame (the last
  /// frame may carry fewer); returns the stream and sets `frames_out` to
  /// its frame count.
  std::vector<std::uint8_t> encode_multiplexed(
      const knn::BinaryDataset& queries, std::size_t& frames_out) const;

 private:
  /// Appends the frame carrying `count` query rows in slices 0..count-1:
  /// row 0 starts at `rows`, and each next row `stride` words later.
  void append_frame(const std::uint64_t* rows, std::size_t stride,
                    std::size_t count, std::vector<std::uint8_t>& out) const;

  StreamSpec spec_;
};

}  // namespace apss::core
