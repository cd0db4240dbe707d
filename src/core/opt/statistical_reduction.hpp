#pragma once
// Statistical activation reduction (Sec. VI-C, Fig. 7): partition the
// vector macros into groups of p; a per-group Local Neighbor Counter (LNC)
// counts reporting-state activations and, at its threshold k', resets every
// inverted-Hamming-distance counter in the group — suppressing the
// remaining (less similar) activations. The host then merges the ~k' local
// results per group, cutting report bandwidth by ~p/k' at a small,
// statistically controlled risk of missing true top-k members.
//
// Two artifacts live here:
//  1. the automata construction (for semantic tests and the Fig. 7 bench);
//  2. the Monte Carlo accuracy model that regenerates Table VI.

#include <cstdint>
#include <span>
#include <vector>

#include "anml/network.hpp"
#include "core/hamming_macro.hpp"
#include "knn/dataset.hpp"
#include "util/thread_pool.hpp"

namespace apss::core {

/// Element ids of one reduction group: the p member macros plus the LNC
/// (pulse counter, threshold k') that resets the members' distance
/// counters once k' local reports have fired.
struct ReductionGroupLayout {
  std::vector<MacroLayout> macros;
  anml::ElementId local_neighbor_counter = anml::kInvalidElement;
};

/// Appends `count` macros (vectors begin..begin+count-1 of `data`) plus the
/// group's LNC with threshold `k_prime`. Report codes are global ids.
ReductionGroupLayout append_reduction_group(
    anml::AutomataNetwork& network, const knn::BinaryDataset& data,
    std::size_t begin, std::size_t count, std::uint32_t k_prime,
    const HammingMacroOptions& options = {});

// ---------------------------------------------------------------------------
// Table VI accuracy model
// ---------------------------------------------------------------------------

struct ReductionModelParams {
  std::size_t n = 1024;        ///< dataset vectors
  std::size_t dims = 64;       ///< workload dimensionality
  std::size_t group_size = 16; ///< p
  std::size_t k = 2;           ///< global neighbors wanted
  std::size_t queries_per_run = 4096;  ///< a "run" batches this many queries
  std::size_t runs = 100;
  std::uint64_t seed = 1;
};

struct ReductionModelResult {
  /// Fraction of RUNS in which at least one query's global top-k could not
  /// be reconstructed from the local k' survivors (the paper's Table VI
  /// "percentage of incorrect results out of 100 randomized runs").
  double incorrect_run_fraction = 0.0;
  /// Fraction of individual queries that failed, across all runs.
  double incorrect_query_fraction = 0.0;
  /// Mean report events per query AFTER reduction (bandwidth proxy):
  /// ~k' x (n/p) instead of n.
  double mean_reports_per_query = 0.0;
};

/// Monte Carlo evaluation: per query, keep the k' smallest distances per
/// group, pool them, and compare the pooled top-k DISTANCE MULTISET against
/// the exact one (tie-aware: any id permutation within equal distances is
/// correct, matching what the temporal sort can guarantee). Every k' in
/// `k_primes` runs over the SAME sampled datasets/queries, sharing the
/// distance computations (the Table VI bench evaluates k' = 1..4 per
/// workload; recomputing 100 x 4096 x n distances per k' would quadruple
/// the cost); results align with `k_primes`.
std::vector<ReductionModelResult> evaluate_reduction_sweep(
    const ReductionModelParams& p, std::span<const std::size_t> k_primes,
    util::ThreadPool* pool = nullptr);

}  // namespace apss::core
