#pragma once
// Binary (Hamming-space) datasets.
//
// The paper's pipeline assumes feature vectors have been quantized offline
// (e.g. with ITQ, see src/quant) into d-bit binary codes; this module stores
// such codes row-major with a fixed word stride, and provides the synthetic
// generators used by the benches (uniform random, planted Hamming clusters).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bitvector.hpp"
#include "util/rng.hpp"

namespace apss::knn {

class BinaryDataset {
 public:
  BinaryDataset() = default;

  /// n all-zero vectors of `dims` bits each.
  BinaryDataset(std::size_t n, std::size_t dims);

  std::size_t size() const noexcept { return n_; }
  std::size_t dims() const noexcept { return dims_; }
  std::size_t word_stride() const noexcept { return stride_; }
  bool empty() const noexcept { return n_ == 0; }

  std::span<const std::uint64_t> row(std::size_t i) const noexcept {
    return {words_.data() + i * stride_, stride_};
  }
  std::span<std::uint64_t> row(std::size_t i) noexcept {
    return {words_.data() + i * stride_, stride_};
  }

  bool get(std::size_t i, std::size_t dim) const noexcept {
    return (row(i)[dim >> 6] >> (dim & 63)) & 1u;
  }
  void set(std::size_t i, std::size_t dim, bool v) noexcept {
    const std::uint64_t mask = std::uint64_t{1} << (dim & 63);
    auto r = row(i);
    if (v) {
      r[dim >> 6] |= mask;
    } else {
      r[dim >> 6] &= ~mask;
    }
  }

  util::BitVector vector(std::size_t i) const;
  void set_vector(std::size_t i, const util::BitVector& v);

  /// Appends a vector (must have matching dimensionality).
  void push_back(const util::BitVector& v);

  /// Dataset restricted to `ids` (bucket extraction for indexes).
  BinaryDataset subset(std::span<const std::uint32_t> ids) const;

  // --- Generators -----------------------------------------------------------

  /// i.i.d. uniform bits.
  static BinaryDataset uniform(std::size_t n, std::size_t dims,
                               std::uint64_t seed);

  /// `clusters` random centers; each vector is a center with every bit
  /// flipped independently with probability `flip_prob`. Queries drawn near
  /// the same centers make recall experiments meaningful.
  static BinaryDataset clustered(std::size_t n, std::size_t dims,
                                 std::size_t clusters, double flip_prob,
                                 std::uint64_t seed);

  /// Serialization: little-endian [n, dims] header + packed rows.
  void save(const std::string& path) const;
  static BinaryDataset load(const std::string& path);

 private:
  std::size_t n_ = 0;
  std::size_t dims_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Draws `count` queries by perturbing random dataset rows (flip_prob per
/// bit), so each query has at least one close neighbor.
BinaryDataset perturbed_queries(const BinaryDataset& data, std::size_t count,
                                double flip_prob, std::uint64_t seed);

}  // namespace apss::knn
