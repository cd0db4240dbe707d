#include "core/opt/statistical_reduction.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "knn/exact.hpp"
#include "util/rng.hpp"

namespace apss::core {

using anml::CounterPort;

ReductionGroupLayout append_reduction_group(
    anml::AutomataNetwork& network, const knn::BinaryDataset& data,
    std::size_t begin, std::size_t count, std::uint32_t k_prime,
    const HammingMacroOptions& options) {
  if (count == 0 || begin + count > data.size()) {
    throw std::invalid_argument("append_reduction_group: bad range");
  }
  if (k_prime == 0) {
    throw std::invalid_argument("append_reduction_group: k' must be >= 1");
  }
  ReductionGroupLayout layout;
  layout.macros.reserve(count);
  for (std::size_t v = 0; v < count; ++v) {
    layout.macros.push_back(
        append_hamming_macro(network, data.vector(begin + v),
                             static_cast<std::uint32_t>(begin + v), options));
  }
  // Fig. 7: the LNC counts report activations; at k' it resets every
  // distance counter in the group, suppressing later (more distant)
  // reports. Reset propagation costs a few cycles, so a handful of extra
  // reports may escape — the host-side merge tolerates the surplus.
  layout.local_neighbor_counter = network.add_counter(
      k_prime, anml::CounterMode::kPulse,
      "lnc" + std::to_string(begin));
  for (const MacroLayout& m : layout.macros) {
    network.connect(m.report, layout.local_neighbor_counter,
                    CounterPort::kCountEnable);
    network.connect(layout.local_neighbor_counter, m.counter,
                    CounterPort::kReset);
  }
  // Re-arm the LNC at end of frame (all macros' EOF states fire together;
  // one suffices).
  network.connect(layout.macros.front().eof_state,
                  layout.local_neighbor_counter, CounterPort::kReset);
  return layout;
}

std::vector<ReductionModelResult> evaluate_reduction_sweep(
    const ReductionModelParams& p, std::span<const std::size_t> k_primes,
    util::ThreadPool* pool) {
  if (p.group_size == 0 || p.k == 0 || p.n == 0 || k_primes.empty()) {
    throw std::invalid_argument("evaluate_reduction_sweep: bad parameters");
  }
  const std::size_t groups = (p.n + p.group_size - 1) / p.group_size;
  for (const std::size_t kp : k_primes) {
    if (kp == 0 || groups * kp < p.k) {
      throw std::invalid_argument(
          "evaluate_reduction_sweep: k' x (n/p) must cover k (Sec. VI-C)");
    }
  }
  const std::size_t variants = k_primes.size();

  // Per-variant atomics, accumulated across runs.
  std::vector<std::atomic<std::size_t>> failed_runs(variants);
  std::vector<std::atomic<std::size_t>> failed_queries(variants);
  std::vector<std::atomic<std::uint64_t>> total_reports(variants);

  const auto run_one = [&](std::size_t run) {
    util::Rng rng(p.seed + run * 0x9e3779b97f4a7c15ULL);
    const auto data = knn::BinaryDataset::uniform(p.n, p.dims, rng.next());
    const auto queries =
        knn::BinaryDataset::uniform(p.queries_per_run, p.dims, rng.next());

    std::vector<bool> run_failed(variants, false);
    std::vector<std::size_t> local_failed(variants, 0);
    std::vector<std::uint64_t> local_reports(variants, 0);
    std::vector<std::uint32_t> pooled;
    std::vector<std::uint32_t> group_sorted;

    for (std::size_t q = 0; q < p.queries_per_run; ++q) {
      const auto dist = knn::all_distances(data, queries.row(q));

      // Exact top-k distances (shared across the sweep).
      std::vector<std::uint32_t> exact(dist);
      std::nth_element(exact.begin(), exact.begin() + (p.k - 1), exact.end());
      exact.resize(p.k);
      std::sort(exact.begin(), exact.end());

      // Per-group distance arrays sorted ONCE; every k' variant just takes
      // a different prefix.
      std::vector<std::vector<std::uint32_t>> per_group(groups);
      for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t lo = g * p.group_size;
        const std::size_t hi = std::min(p.n, lo + p.group_size);
        group_sorted.assign(dist.begin() + lo, dist.begin() + hi);
        std::sort(group_sorted.begin(), group_sorted.end());
        per_group[g] = group_sorted;
      }

      for (std::size_t v = 0; v < variants; ++v) {
        const std::size_t kp = k_primes[v];
        pooled.clear();
        for (std::size_t g = 0; g < groups; ++g) {
          const std::size_t keep = std::min(kp, per_group[g].size());
          pooled.insert(pooled.end(), per_group[g].begin(),
                        per_group[g].begin() + keep);
        }
        local_reports[v] += pooled.size();
        std::nth_element(pooled.begin(), pooled.begin() + (p.k - 1),
                         pooled.end());
        pooled.resize(p.k);
        std::sort(pooled.begin(), pooled.end());
        if (pooled != exact) {
          run_failed[v] = true;
          ++local_failed[v];
        }
      }
    }
    for (std::size_t v = 0; v < variants; ++v) {
      if (run_failed[v]) {
        ++failed_runs[v];
      }
      failed_queries[v] += local_failed[v];
      total_reports[v] += local_reports[v];
    }
  };

  if (pool != nullptr) {
    pool->parallel_for(0, p.runs, run_one, /*grain=*/1);
  } else {
    for (std::size_t run = 0; run < p.runs; ++run) {
      run_one(run);
    }
  }

  std::vector<ReductionModelResult> results(variants);
  const double total_queries =
      static_cast<double>(p.runs) * static_cast<double>(p.queries_per_run);
  for (std::size_t v = 0; v < variants; ++v) {
    results[v].incorrect_run_fraction =
        static_cast<double>(failed_runs[v].load()) /
        static_cast<double>(p.runs);
    results[v].incorrect_query_fraction =
        static_cast<double>(failed_queries[v].load()) / total_queries;
    results[v].mean_reports_per_query =
        static_cast<double>(total_reports[v].load()) / total_queries;
  }
  return results;
}

}  // namespace apss::core
