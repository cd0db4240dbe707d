#include "util/bitvector.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace apss::util {

BitVector BitVector::from_bits(std::span<const int> values) {
  BitVector v(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != 0 && values[i] != 1) {
      throw std::invalid_argument("BitVector::from_bits: values must be 0/1");
    }
    v.set(i, values[i] != 0);
  }
  return v;
}

BitVector BitVector::parse(const std::string& zeros_and_ones) {
  BitVector v(zeros_and_ones.size());
  for (std::size_t i = 0; i < zeros_and_ones.size(); ++i) {
    const char c = zeros_and_ones[i];
    if (c != '0' && c != '1') {
      throw std::invalid_argument("BitVector::parse: expected only '0'/'1'");
    }
    v.set(i, c == '1');
  }
  return v;
}

std::size_t BitVector::popcount() const noexcept {
  std::size_t total = 0;
  for (const std::uint64_t w : words_) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

std::string BitVector::to_string() const {
  std::string s(bits_, '0');
  for (std::size_t i = 0; i < bits_; ++i) {
    if (get(i)) {
      s[i] = '1';
    }
  }
  return s;
}

std::size_t hamming_distance(std::span<const std::uint64_t> a,
                             std::span<const std::uint64_t> b) noexcept {
  assert(a.size() == b.size());
  std::size_t total = 0;
  std::size_t i = 0;
  // Four-way unroll: the scan kernel spends its time here, and the unrolled
  // form lets the compiler keep four popcounts in flight.
  for (; i + 4 <= a.size(); i += 4) {
    total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i])) +
             static_cast<std::size_t>(std::popcount(a[i + 1] ^ b[i + 1])) +
             static_cast<std::size_t>(std::popcount(a[i + 2] ^ b[i + 2])) +
             static_cast<std::size_t>(std::popcount(a[i + 3] ^ b[i + 3]));
  }
  for (; i < a.size(); ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

std::size_t hamming_distance(const BitVector& a, const BitVector& b) noexcept {
  assert(a.size() == b.size());
  return hamming_distance(a.words(), b.words());
}

}  // namespace apss::util
