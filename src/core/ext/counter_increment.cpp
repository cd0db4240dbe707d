#include "core/ext/counter_increment.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "apsim/simulator.hpp"

namespace apss::core {

using anml::AutomataNetwork;
using anml::CounterPort;
using anml::ElementId;
using anml::StartKind;
using anml::SymbolSet;

CiMacroLayout append_ci_macro(AutomataNetwork& network,
                              const util::BitVector& vec,
                              std::uint32_t report_code) {
  const std::size_t dims = vec.size();
  if (dims == 0) {
    throw std::invalid_argument("ci macro: dims must be >= 1");
  }
  const CiStreamSpec spec{dims};
  const std::size_t symbols = spec.data_symbols();
  const std::string prefix = "ci" + std::to_string(report_code) + ".";

  CiMacroLayout layout;
  layout.guard = network.add_ste(SymbolSet::single(Alphabet::kSof),
                                 StartKind::kAllInput, prefix + "guard");

  // Backbone: one "*" state per data SYMBOL (not per dimension).
  ElementId prev = layout.guard;
  for (std::size_t j = 0; j < symbols; ++j) {
    const ElementId star = network.add_ste(
        SymbolSet::all(), StartKind::kNone, prefix + "chain" + std::to_string(j));
    network.connect(prev, star);
    layout.chain.push_back(star);
    prev = star;
  }

  layout.counter =
      network.add_counter(static_cast<std::uint32_t>(dims),
                          anml::CounterMode::kPulse, prefix + "ihd");

  // Per-slice collectors: matches of slice s (across all symbol groups)
  // funnel through collector s. Within one cycle at most one group is
  // active, so each collector carries at most one activation per cycle;
  // the (up to 7) collectors fire SIMULTANEOUSLY and the multi-increment
  // counter adds them all — this is what stock hardware cannot do.
  const std::size_t slices = std::min(kDimsPerSymbol, dims);
  for (std::size_t s = 0; s < slices; ++s) {
    const ElementId col = network.add_ste(SymbolSet::all(), StartKind::kNone,
                                          prefix + "col" + std::to_string(s));
    layout.slice_collectors.push_back(col);
    network.connect(col, layout.counter, CounterPort::kCountEnable);
  }

  // Matching states: dim i rides symbol group i/7, payload bit i%7.
  for (std::size_t i = 0; i < dims; ++i) {
    const std::size_t group = i / kDimsPerSymbol;
    const std::size_t slice = i % kDimsPerSymbol;
    const ElementId m = network.add_ste(
        slice_match_symbols(vec.get(i), slice), StartKind::kNone,
        prefix + "match" + std::to_string(i));
    network.connect(group == 0 ? layout.guard : layout.chain[group - 1], m);
    network.connect(m, layout.slice_collectors[slice]);
    layout.match.push_back(m);
  }

  // Sorting macro: identical to the base design, but anchored to the
  // shorter ceil(d/7)-symbol Hamming phase.
  layout.bridge = network.add_ste(SymbolSet::all(), StartKind::kNone,
                                  prefix + "bridge");
  network.connect(layout.chain.back(), layout.bridge);
  layout.sort_state = network.add_ste(SymbolSet::all_except(Alphabet::kEof),
                                      StartKind::kNone, prefix + "sort");
  network.connect(layout.bridge, layout.sort_state);
  network.connect(layout.sort_state, layout.sort_state);
  network.connect(layout.sort_state, layout.counter, CounterPort::kCountEnable);
  layout.eof_state = network.add_ste(SymbolSet::single(Alphabet::kEof),
                                     StartKind::kNone, prefix + "eof");
  network.connect(layout.sort_state, layout.eof_state);
  network.connect(layout.eof_state, layout.counter, CounterPort::kReset);
  layout.report = network.add_reporting_ste(SymbolSet::all(), report_code,
                                            prefix + "report");
  network.connect(layout.counter, layout.report);
  return layout;
}

std::vector<std::uint8_t> encode_ci_query(const util::BitVector& query) {
  const CiStreamSpec spec{query.size()};
  std::vector<std::uint8_t> out;
  out.reserve(spec.cycles_per_query());
  out.push_back(Alphabet::kSof);
  for (std::size_t j = 0; j < spec.data_symbols(); ++j) {
    std::uint8_t payload = 0;
    for (std::size_t s = 0; s < kDimsPerSymbol; ++s) {
      const std::size_t dim = j * kDimsPerSymbol + s;
      if (dim < query.size() && query.get(dim)) {
        payload |= static_cast<std::uint8_t>(1u << s);
      }
    }
    out.push_back(Alphabet::data(payload));
  }
  for (std::size_t i = 0; i < spec.fill_symbols(); ++i) {
    out.push_back(Alphabet::kFill);
  }
  out.push_back(Alphabet::kEof);
  return out;
}

std::vector<std::vector<knn::Neighbor>> ci_knn_search(
    const knn::BinaryDataset& data, const knn::BinaryDataset& queries,
    std::size_t k) {
  if (data.empty() || queries.dims() != data.dims() || k == 0) {
    throw std::invalid_argument("ci_knn_search: bad arguments");
  }
  AutomataNetwork net("ci-ext");
  for (std::size_t v = 0; v < data.size(); ++v) {
    append_ci_macro(net, data.vector(v), static_cast<std::uint32_t>(v));
  }
  apsim::SimOptions options =
      apsim::SimOptions::from(apsim::DeviceConfig::opt_ext().features);
  apsim::Simulator sim(net, options);
  const CiStreamSpec spec{data.dims()};

  std::vector<std::vector<knn::Neighbor>> results(queries.size());
  const std::size_t want = std::min(k, data.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto events = sim.run(encode_ci_query(queries.vector(q)));
    auto& list = results[q];
    for (const apsim::ReportEvent& e : events) {
      if (list.size() >= want && spec.distance_from_offset(e.cycle) >
                                     list.back().distance) {
        break;  // events arrive distance-sorted
      }
      list.push_back({e.report_code, static_cast<std::uint32_t>(
                                         spec.distance_from_offset(e.cycle))});
    }
    std::stable_sort(list.begin(), list.end());
    if (list.size() > want) {
      list.resize(want);
    }
  }
  return results;
}

}  // namespace apss::core
