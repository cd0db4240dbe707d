#include "knn/dataset.hpp"

#include <fstream>
#include <stdexcept>

namespace apss::knn {

BinaryDataset::BinaryDataset(std::size_t n, std::size_t dims)
    : n_(n), dims_(dims), stride_(util::words_for_bits(dims)),
      words_(n * stride_, 0) {}

util::BitVector BinaryDataset::vector(std::size_t i) const {
  util::BitVector v(dims_);
  const auto src = row(i);
  std::copy(src.begin(), src.end(), v.words().begin());
  return v;
}

void BinaryDataset::set_vector(std::size_t i, const util::BitVector& v) {
  if (v.size() != dims_) {
    throw std::invalid_argument("BinaryDataset::set_vector: dims mismatch");
  }
  const auto src = v.words();
  std::copy(src.begin(), src.end(), row(i).begin());
}

void BinaryDataset::push_back(const util::BitVector& v) {
  if (n_ == 0 && dims_ == 0) {
    dims_ = v.size();
    stride_ = util::words_for_bits(dims_);
  }
  if (v.size() != dims_) {
    throw std::invalid_argument("BinaryDataset::push_back: dims mismatch");
  }
  words_.resize(words_.size() + stride_, 0);
  ++n_;
  set_vector(n_ - 1, v);
}

BinaryDataset BinaryDataset::subset(std::span<const std::uint32_t> ids) const {
  BinaryDataset out(ids.size(), dims_);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto src = row(ids[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

BinaryDataset BinaryDataset::uniform(std::size_t n, std::size_t dims,
                                     std::uint64_t seed) {
  BinaryDataset d(n, dims);
  util::Rng rng(seed);
  const std::size_t tail_bits = dims % 64;
  for (std::size_t i = 0; i < n; ++i) {
    auto r = d.row(i);
    for (auto& word : r) {
      word = rng.next();
    }
    if (tail_bits != 0) {
      r[r.size() - 1] &= (std::uint64_t{1} << tail_bits) - 1;
    }
  }
  return d;
}

BinaryDataset BinaryDataset::clustered(std::size_t n, std::size_t dims,
                                       std::size_t clusters, double flip_prob,
                                       std::uint64_t seed) {
  if (clusters == 0) {
    throw std::invalid_argument("BinaryDataset::clustered: clusters == 0");
  }
  util::Rng rng(seed);
  const BinaryDataset centers = uniform(clusters, dims, rng.next());
  BinaryDataset d(n, dims);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = rng.below(clusters);
    const auto src = centers.row(c);
    auto dst = d.row(i);
    std::copy(src.begin(), src.end(), dst.begin());
    for (std::size_t dim = 0; dim < dims; ++dim) {
      if (rng.bernoulli(flip_prob)) {
        dst[dim >> 6] ^= std::uint64_t{1} << (dim & 63);
      }
    }
  }
  return d;
}

void BinaryDataset::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("BinaryDataset::save: cannot open " + path);
  }
  const std::uint64_t header[2] = {n_, dims_};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(words_.data()),
            static_cast<std::streamsize>(words_.size() * sizeof(std::uint64_t)));
  if (!out) {
    throw std::runtime_error("BinaryDataset::save: write failed for " + path);
  }
}

BinaryDataset BinaryDataset::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("BinaryDataset::load: cannot open " + path);
  }
  std::uint64_t header[2] = {};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in) {
    throw std::runtime_error("BinaryDataset::load: truncated header");
  }
  BinaryDataset d(header[0], header[1]);
  in.read(reinterpret_cast<char*>(d.words_.data()),
          static_cast<std::streamsize>(d.words_.size() * sizeof(std::uint64_t)));
  if (!in) {
    throw std::runtime_error("BinaryDataset::load: truncated payload");
  }
  return d;
}

BinaryDataset perturbed_queries(const BinaryDataset& data, std::size_t count,
                                double flip_prob, std::uint64_t seed) {
  if (data.empty()) {
    throw std::invalid_argument("perturbed_queries: empty dataset");
  }
  util::Rng rng(seed);
  BinaryDataset q(count, data.dims());
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t src = rng.below(data.size());
    const auto s = data.row(src);
    auto dst = q.row(i);
    std::copy(s.begin(), s.end(), dst.begin());
    for (std::size_t dim = 0; dim < data.dims(); ++dim) {
      if (rng.bernoulli(flip_prob)) {
        dst[dim >> 6] ^= std::uint64_t{1} << (dim & 63);
      }
    }
  }
  return q;
}

}  // namespace apss::knn
