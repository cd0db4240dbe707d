#pragma once
// The ledger's frozen yardstick: an exact kNN scan by popcount distance and
// std::partial_sort on (distance, id). The scan-normalised metrics divide
// search time by the time of this scan on the same queries, so host-speed
// swings between runs cancel. It lives here, not in src/knn, on purpose:
// knn::knn_scan is code a later change may speed up, and a yardstick that
// moves is no yardstick. For the same reason it splits queries over its own
// std::jthreads rather than util::ThreadPool.
//
// On x86-64 the loop is also compiled for the POPCNT instruction and picked
// at load time. Measured on a shared 4-vCPU Xeon host whose throughput
// swung 26k-41k q/s within three minutes, the search/scan ratio held within
// +-4% with POPCNT and +-7% with the generic bit-count.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "knn/dataset.hpp"
#include "knn/exact.hpp"

namespace ledger {

namespace detail {

/// The k nearest rows of `data` for queries [lo, hi) into out[lo, hi).
/// The clones' load-time resolver runs before ThreadSanitizer starts and
/// crashes it, so a TSan build keeps only the generic loop.
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
[[gnu::target_clones("popcnt", "default")]]
#endif
inline void scan_rows(const apss::knn::BinaryDataset& data,
                      const apss::knn::BinaryDataset& queries, std::size_t lo,
                      std::size_t hi, std::size_t k,
                      std::vector<apss::knn::Neighbor>& scratch,
                      std::vector<std::vector<apss::knn::Neighbor>>& out) {
  const std::size_t n = data.size();
  const std::size_t stride = data.word_stride();
  k = std::min(k, n);
  scratch.resize(n);
  for (std::size_t q = lo; q < hi; ++q) {
    const std::uint64_t* query = queries.row(q).data();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t* row = data.row(i).data();
      std::uint32_t d = 0;
      for (std::size_t w = 0; w < stride; ++w) {
        d += static_cast<std::uint32_t>(std::popcount(row[w] ^ query[w]));
      }
      scratch[i] = {static_cast<std::uint32_t>(i), d};
    }
    std::partial_sort(scratch.begin(),
                      scratch.begin() + static_cast<std::ptrdiff_t>(k),
                      scratch.end());
    out[q].assign(scratch.begin(),
                  scratch.begin() + static_cast<std::ptrdiff_t>(k));
  }
}

}  // namespace detail

/// Scans on `threads` threads (the caller plus threads - 1 helpers), as the
/// engine it is compared with does; scratch is kept across calls so the
/// timed work is the scan, not the allocation.
class Yardstick {
 public:
  explicit Yardstick(std::size_t threads)
      : scratch_(std::max<std::size_t>(1, threads)) {}

  /// Fills `out` with the k nearest rows of `data` for every query of
  /// `queries`, ascending (distance, id).
  void scan(const apss::knn::BinaryDataset& data,
            const apss::knn::BinaryDataset& queries, std::size_t k,
            std::vector<std::vector<apss::knn::Neighbor>>& out) {
    const std::size_t q = queries.size();
    const std::size_t parts = scratch_.size();
    out.resize(q);
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < parts; ++t) {
      helpers.emplace_back([&, t] {
        detail::scan_rows(data, queries, q * t / parts, q * (t + 1) / parts,
                          k, scratch_[t], out);
      });
    }
    detail::scan_rows(data, queries, 0, q / parts, k, scratch_[0], out);
  }

 private:
  std::vector<std::vector<apss::knn::Neighbor>> scratch_;  // one per thread
};

}  // namespace ledger
