#pragma once
// Small dense linear algebra for the ITQ quantization pipeline (Sec. II-A):
// row-major matrices, covariance/PCA via cyclic Jacobi, Gram-Schmidt QR for
// random rotations, and a symmetric-eigen-based SVD for the ITQ rotation
// update. Sizes here are feature dimensionalities (<= a few hundred), so
// O(n^3) dense routines are the right tool.

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace apss::quant {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n);
  /// i.i.d. standard normal entries.
  static Matrix gaussian(std::size_t rows, std::size_t cols, util::Rng& rng);
  /// Random orthonormal matrix (QR of a Gaussian matrix).
  static Matrix random_rotation(std::size_t n, util::Rng& rng);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& at(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }
  std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  Matrix transpose() const;
  Matrix operator*(const Matrix& other) const;

  /// Mean of each column (length cols()).
  std::vector<double> column_means() const;
  /// Subtracts the given per-column means in place.
  void center_columns(std::span<const double> means);

  /// Sample covariance (cols x cols); input should be centered.
  Matrix covariance() const;

  /// max |a_ij - b_ij|.
  double max_abs_diff(const Matrix& other) const;
  /// Frobenius norm.
  double frobenius() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Eigen decomposition of a symmetric matrix by cyclic Jacobi rotations.
/// Returns eigenvalues (descending) and the matching eigenvectors as
/// COLUMNS of `vectors`.
struct EigenResult {
  std::vector<double> values;
  Matrix vectors;
};
EigenResult symmetric_eigen(const Matrix& m, int max_sweeps = 64,
                            double tolerance = 1e-12);

/// Thin QR via modified Gram-Schmidt; returns Q (same shape as input,
/// orthonormal columns). Throws on rank deficiency.
Matrix gram_schmidt_q(const Matrix& m);

/// SVD m = U diag(s) V^T for square m, via symmetric eigen of m^T m.
/// Singular values descending. Columns of U/V are the singular vectors;
/// ill-conditioned directions are completed orthonormally.
struct SvdResult {
  Matrix u;
  std::vector<double> singular_values;
  Matrix v;
};
SvdResult svd_square(const Matrix& m);

}  // namespace apss::quant
