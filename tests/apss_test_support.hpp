#pragma once
// Shared fixtures and helpers for the APSS test suites.
//
// Centralizes the setup boilerplate that used to be copy-pasted across the
// core/ and apsim/ test files: seeded random bit vectors and datasets,
// tiny hand-built ANML networks, and the one-macro-one-query simulation
// harness used by the Hamming macro tests.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "anml/network.hpp"
#include "apsim/simulator.hpp"
#include "core/hamming_macro.hpp"
#include "core/stream.hpp"
#include "knn/dataset.hpp"
#include "knn/exact.hpp"
#include "util/bitvector.hpp"
#include "util/rng.hpp"

namespace apss::test {

/// Converts ASCII text to the raw symbol stream fed to a simulator.
inline std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

/// A random bit vector of `dims` dimensions with expected density `p`.
inline util::BitVector random_bitvector(util::Rng& rng, std::size_t dims,
                                        double p = 0.5) {
  util::BitVector v(dims);
  for (std::size_t i = 0; i < dims; ++i) {
    v.set(i, rng.bernoulli(p));
  }
  return v;
}

/// A dataset of `n` random vectors of `dims` dimensions with density `p`.
inline knn::BinaryDataset random_dataset(util::Rng& rng, std::size_t n,
                                         std::size_t dims, double p = 0.5) {
  knn::BinaryDataset data(n, dims);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < dims; ++i) {
      data.set(v, i, rng.bernoulli(p));
    }
  }
  return data;
}

/// A random symbol stream of `len` symbols drawn from ['a', 'a' + alphabet).
inline std::vector<std::uint8_t> random_symbol_stream(util::Rng& rng,
                                                      std::size_t len,
                                                      std::size_t alphabet) {
  std::vector<std::uint8_t> stream(len);
  for (auto& s : stream) {
    s = static_cast<std::uint8_t>('a' + rng.below(alphabet));
  }
  return stream;
}

/// A toy macro: `stes` STEs in a chain + one counter + one reporting STE.
/// The smallest network that exercises all three element kinds in
/// placement and resource accounting.
inline anml::AutomataNetwork chain_macro(std::size_t stes) {
  anml::AutomataNetwork net;
  anml::ElementId prev =
      net.add_ste(anml::SymbolSet::all(), anml::StartKind::kAllInput);
  for (std::size_t i = 1; i < stes; ++i) {
    const anml::ElementId next = net.add_ste(anml::SymbolSet::all());
    net.connect(prev, next);
    prev = next;
  }
  const anml::ElementId counter = net.add_counter(4);
  net.connect(prev, counter, anml::CounterPort::kCountEnable);
  const anml::ElementId rep =
      net.add_reporting_ste(anml::SymbolSet::all(), 1);
  net.connect(counter, rep);
  return net;
}

/// Builds one Hamming macro for `vec`, runs one encoded `query` through the
/// simulator, and returns the report events.
inline std::vector<apsim::ReportEvent> run_hamming_query(
    const util::BitVector& vec, const util::BitVector& query,
    const core::HammingMacroOptions& opt = {}) {
  anml::AutomataNetwork net;
  const core::MacroLayout layout =
      core::append_hamming_macro(net, vec, 0, opt);
  apsim::Simulator sim(net);
  const core::SymbolStreamEncoder encoder(
      core::StreamSpec{vec.size(), layout.collector_levels});
  return sim.run(encoder.encode_query(query));
}

/// Asserts that `results` equals knn::knn_scan's answer for every query
/// row: the same neighbours in the same (distance, id) order, tie order
/// included. `context` prefixes failure messages.
inline void expect_exact_knn_results(
    const knn::BinaryDataset& data, const knn::BinaryDataset& queries,
    std::size_t k, const std::vector<std::vector<knn::Neighbor>>& results,
    const std::string& context = {}) {
  ASSERT_EQ(results.size(), queries.size()) << context;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(results[q], knn::knn_scan(data, queries.row(q), k))
        << context << (context.empty() ? "" : " ") << "query " << q;
  }
}

}  // namespace apss::test
