#include "quant/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace apss::quant {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m.at(i, i) = 1.0;
  }
  return m;
}

Matrix Matrix::gaussian(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.at(r, c) = rng.gaussian();
    }
  }
  return m;
}

Matrix Matrix::random_rotation(std::size_t n, util::Rng& rng) {
  return gram_schmidt_q(gaussian(n, n, rng));
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t.at(c, r) = at(r, c);
    }
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& other) const {
  if (cols_ != other.rows_) {
    throw std::invalid_argument("Matrix multiply: shape mismatch");
  }
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = at(i, k);
      if (a == 0.0) {
        continue;
      }
      const auto src = other.row(k);
      const auto dst = out.row(i);
      for (std::size_t j = 0; j < other.cols_; ++j) {
        dst[j] += a * src[j];
      }
    }
  }
  return out;
}

std::vector<double> Matrix::column_means() const {
  std::vector<double> means(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto src = row(r);
    for (std::size_t c = 0; c < cols_; ++c) {
      means[c] += src[c];
    }
  }
  for (double& m : means) {
    m /= static_cast<double>(std::max<std::size_t>(1, rows_));
  }
  return means;
}

void Matrix::center_columns(std::span<const double> means) {
  if (means.size() != cols_) {
    throw std::invalid_argument("center_columns: means size mismatch");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto dst = row(r);
    for (std::size_t c = 0; c < cols_; ++c) {
      dst[c] -= means[c];
    }
  }
}

Matrix Matrix::covariance() const {
  if (rows_ < 2) {
    throw std::invalid_argument("covariance: need at least 2 rows");
  }
  Matrix cov(cols_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto x = row(r);
    for (std::size_t i = 0; i < cols_; ++i) {
      const double xi = x[i];
      if (xi == 0.0) {
        continue;
      }
      const auto dst = cov.row(i);
      for (std::size_t j = 0; j < cols_; ++j) {
        dst[j] += xi * x[j];
      }
    }
  }
  const double scale = 1.0 / static_cast<double>(rows_ - 1);
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      cov.at(i, j) *= scale;
    }
  }
  return cov;
}

double Matrix::max_abs_diff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::fabs(data_[i] - other.data_[i]));
  }
  return worst;
}

double Matrix::frobenius() const {
  double total = 0.0;
  for (const double x : data_) {
    total += x * x;
  }
  return std::sqrt(total);
}

EigenResult symmetric_eigen(const Matrix& m, int max_sweeps,
                            double tolerance) {
  if (m.rows() != m.cols()) {
    throw std::invalid_argument("symmetric_eigen: matrix must be square");
  }
  const std::size_t n = m.rows();
  Matrix a = m;
  Matrix v = Matrix::identity(n);

  const auto off_diag_norm = [&a, n] {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        total += a.at(i, j) * a.at(i, j);
      }
    }
    return std::sqrt(total);
  };

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diag_norm() <= tolerance * std::max(1.0, a.frobenius())) {
      break;
    }
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a.at(p, q);
        if (std::fabs(apq) < 1e-300) {
          continue;
        }
        const double app = a.at(p, p);
        const double aqq = a.at(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply the rotation to rows/cols p and q of A and to V.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a.at(k, p);
          const double akq = a.at(k, q);
          a.at(k, p) = c * akp - s * akq;
          a.at(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a.at(p, k);
          const double aqk = a.at(q, k);
          a.at(p, k) = c * apk - s * aqk;
          a.at(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v.at(k, p);
          const double vkq = v.at(k, q);
          v.at(k, p) = c * vkp - s * vkq;
          v.at(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&a](std::size_t x, std::size_t y) {
    return a.at(x, x) > a.at(y, y);
  });
  EigenResult result;
  result.values.resize(n);
  result.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    result.values[j] = a.at(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i) {
      result.vectors.at(i, j) = v.at(i, order[j]);
    }
  }
  return result;
}

Matrix gram_schmidt_q(const Matrix& m) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  if (cols > rows) {
    throw std::invalid_argument("gram_schmidt_q: more columns than rows");
  }
  Matrix q = m;
  for (std::size_t j = 0; j < cols; ++j) {
    // Orthogonalize column j against previous columns (twice, for
    // numerical robustness).
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t prev = 0; prev < j; ++prev) {
        double dot = 0.0;
        for (std::size_t i = 0; i < rows; ++i) {
          dot += q.at(i, j) * q.at(i, prev);
        }
        for (std::size_t i = 0; i < rows; ++i) {
          q.at(i, j) -= dot * q.at(i, prev);
        }
      }
    }
    double norm = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      norm += q.at(i, j) * q.at(i, j);
    }
    norm = std::sqrt(norm);
    if (norm < 1e-12) {
      throw std::invalid_argument("gram_schmidt_q: rank-deficient input");
    }
    for (std::size_t i = 0; i < rows; ++i) {
      q.at(i, j) /= norm;
    }
  }
  return q;
}

SvdResult svd_square(const Matrix& m) {
  if (m.rows() != m.cols()) {
    throw std::invalid_argument("svd_square: matrix must be square");
  }
  const std::size_t n = m.rows();
  // m = U S V^T  =>  m^T m = V S^2 V^T.
  const EigenResult eig = symmetric_eigen(m.transpose() * m);
  SvdResult result;
  result.v = eig.vectors;
  result.singular_values.resize(n);
  result.u = Matrix(n, n);

  const double scale = std::max(1.0, m.frobenius());
  std::vector<std::size_t> null_columns;
  for (std::size_t j = 0; j < n; ++j) {
    const double sigma = std::sqrt(std::max(0.0, eig.values[j]));
    result.singular_values[j] = sigma;
    // The Jacobi eigensolver leaves O(1e-7) residuals in null directions;
    // treat anything below 1e-6 x scale as numerically zero.
    if (sigma > 1e-6 * scale) {
      // u_j = m v_j / sigma.
      for (std::size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
          sum += m.at(i, k) * result.v.at(k, j);
        }
        result.u.at(i, j) = sum / sigma;
      }
    } else {
      null_columns.push_back(j);
    }
  }
  // Complete null directions: orthogonalize standard basis vectors against
  // every column already in place (unfilled columns are zero and contribute
  // nothing) and keep candidates with real residual mass.
  std::size_t basis_cursor = 0;
  for (const std::size_t j : null_columns) {
    for (; basis_cursor < n; ++basis_cursor) {
      std::vector<double> candidate(n, 0.0);
      candidate[basis_cursor] = 1.0;
      for (std::size_t prev = 0; prev < n; ++prev) {
        double dot = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          dot += candidate[i] * result.u.at(i, prev);
        }
        for (std::size_t i = 0; i < n; ++i) {
          candidate[i] -= dot * result.u.at(i, prev);
        }
      }
      double norm = 0.0;
      for (const double x : candidate) {
        norm += x * x;
      }
      norm = std::sqrt(norm);
      if (norm > 1e-6) {
        for (std::size_t i = 0; i < n; ++i) {
          result.u.at(i, j) = candidate[i] / norm;
        }
        ++basis_cursor;
        break;
      }
    }
  }
  return result;
}

}  // namespace apss::quant
