#pragma once
// Packed binary vectors for Hamming-space similarity search.
//
// A BitVector stores d bits (one per feature dimension) packed into 64-bit
// words. This is the storage format consumed by every backend in APSS: the
// CPU XOR/POPCNT baseline, the FPGA model's scratchpad, and the automata
// builders that expand bits into NFA matching states.

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace apss::util {

/// Number of 64-bit words needed to hold `bits` bits.
constexpr std::size_t words_for_bits(std::size_t bits) noexcept {
  return (bits + 63) / 64;
}

/// A fixed-length packed bit vector (one bit per Hamming-space dimension).
class BitVector {
 public:
  BitVector() = default;

  /// Creates an all-zero vector of `bits` dimensions.
  explicit BitVector(std::size_t bits)
      : bits_(bits), words_(words_for_bits(bits), 0) {}

  /// Builds from a 0/1 container (e.g. std::vector<int> or initializer list).
  static BitVector from_bits(std::span<const int> values);

  /// Parses a string of '0'/'1' characters, most-significant dimension first
  /// in reading order (index 0 = first character).
  static BitVector parse(const std::string& zeros_and_ones);

  std::size_t size() const noexcept { return bits_; }
  bool empty() const noexcept { return bits_ == 0; }

  bool get(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i, bool v) noexcept {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (v) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }
  void flip(std::size_t i) noexcept { words_[i >> 6] ^= std::uint64_t{1} << (i & 63); }

  /// Number of set bits.
  std::size_t popcount() const noexcept;

  std::span<const std::uint64_t> words() const noexcept { return words_; }
  std::span<std::uint64_t> words() noexcept { return words_; }

  /// Renders as a '0'/'1' string (index 0 first).
  std::string to_string() const;

  bool operator==(const BitVector& other) const noexcept {
    return bits_ == other.bits_ && words_ == other.words_;
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Hamming distance between two equal-width word spans.
std::size_t hamming_distance(std::span<const std::uint64_t> a,
                             std::span<const std::uint64_t> b) noexcept;

/// Hamming distance between two equal-length bit vectors.
std::size_t hamming_distance(const BitVector& a, const BitVector& b) noexcept;

}  // namespace apss::util
