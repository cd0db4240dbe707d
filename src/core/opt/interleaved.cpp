#include "core/opt/interleaved.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "apsim/simulator.hpp"
#include "util/ceil_div.hpp"

namespace apss::core {

using anml::AutomataNetwork;
using anml::CounterPort;
using anml::ElementId;
using anml::StartKind;
using anml::SymbolSet;
using util::ceil_div;

InterleavedMacroLayout append_interleaved_macro(
    AutomataNetwork& network, const util::BitVector& vec,
    std::uint32_t report_code, const HammingMacroOptions& options) {
  const std::size_t dims = vec.size();
  if (dims < 2) {
    throw std::invalid_argument("interleaved macro: dims must be >= 2");
  }
  if (collector_levels_for(dims, options) != 1) {
    throw std::invalid_argument(
        "interleaved macro: requires a single collector level (raise "
        "collector_fan_in / max_counter_fan_in)");
  }

  InterleavedMacroLayout layout;
  for (std::size_t parity = 0; parity < 2; ++parity) {
    const std::string prefix = "il" + std::to_string(report_code) +
                               (parity == 0 ? "A." : "B.");
    const std::uint8_t sof = InterleavedAlphabet::sof(parity);

    const ElementId guard = network.add_ste(SymbolSet::single(sof),
                                            StartKind::kAllInput,
                                            prefix + "guard");
    const ElementId counter = network.add_counter(
        static_cast<std::uint32_t>(dims), anml::CounterMode::kPulse,
        prefix + "ihd");
    // The guard both launches the compute wave and re-arms the counter for
    // this half's next query (replacing the base design's EOF state).
    network.connect(guard, counter, CounterPort::kReset);

    ElementId prev = guard;
    std::vector<ElementId> matches;
    matches.reserve(dims);
    for (std::size_t i = 0; i < dims; ++i) {
      const ElementId star =
          network.add_ste(SymbolSet::all(), StartKind::kNone,
                          prefix + "chain" + std::to_string(i));
      const ElementId m = network.add_ste(
          slice_match_symbols(vec.get(i), options.bit_slice), StartKind::kNone,
          prefix + "match" + std::to_string(i));
      network.connect(prev, star);
      network.connect(prev, m);
      matches.push_back(m);
      prev = star;
    }

    const std::size_t groups = ceil_div(dims, options.collector_fan_in);
    for (std::size_t g = 0; g < groups; ++g) {
      const ElementId col = network.add_ste(
          SymbolSet::all(), StartKind::kNone,
          prefix + "col" + std::to_string(g));
      const std::size_t lo = g * options.collector_fan_in;
      const std::size_t hi = std::min(dims, lo + options.collector_fan_in);
      for (std::size_t i = lo; i < hi; ++i) {
        network.connect(matches[i], col);
      }
      network.connect(col, counter, CounterPort::kCountEnable);
    }

    // Bridge + sort: the sort state survives every symbol except this
    // half's own SOF, so the NEXT frame's data doubles as fill symbols.
    const ElementId bridge = network.add_ste(SymbolSet::all(),
                                             StartKind::kNone,
                                             prefix + "bridge");
    network.connect(prev, bridge);
    const ElementId sort_state = network.add_ste(
        SymbolSet::all_except(sof), StartKind::kNone, prefix + "sort");
    network.connect(bridge, sort_state);
    network.connect(sort_state, sort_state);
    network.connect(sort_state, counter, CounterPort::kCountEnable);

    const ElementId report = network.add_reporting_ste(
        SymbolSet::all(), report_code, prefix + "report");
    network.connect(counter, report);

    layout.guard[parity] = guard;
    layout.counter[parity] = counter;
    layout.report[parity] = report;
  }
  return layout;
}

std::vector<std::uint8_t> encode_interleaved_batch(
    const knn::BinaryDataset& queries) {
  if (queries.empty()) {
    throw std::invalid_argument("encode_interleaved_batch: no queries");
  }
  const std::size_t dims = queries.dims();
  const InterleavedSpec spec{dims};
  std::vector<std::uint8_t> out;
  out.reserve(spec.stream_length(queries.size()));
  for (std::size_t j = 0; j < queries.size(); ++j) {
    out.push_back(InterleavedAlphabet::sof(j));
    for (std::size_t i = 0; i < dims; ++i) {
      out.push_back(Alphabet::data_bit(queries.get(j, i)));
    }
  }
  // Flush frame: the next parity marker plus fills to drive the final
  // query's sort, and two settle cycles for its report to land.
  out.push_back(InterleavedAlphabet::sof(queries.size()));
  for (std::size_t i = 0; i < dims + 2; ++i) {
    out.push_back(Alphabet::kFill);
  }
  return out;
}

std::vector<std::vector<knn::Neighbor>> interleaved_knn_search(
    const knn::BinaryDataset& data, const knn::BinaryDataset& queries,
    std::size_t k) {
  if (data.empty() || queries.dims() != data.dims() || k == 0) {
    throw std::invalid_argument("interleaved_knn_search: bad arguments");
  }
  AutomataNetwork net("interleaved");
  for (std::size_t v = 0; v < data.size(); ++v) {
    append_interleaved_macro(net, data.vector(v),
                             static_cast<std::uint32_t>(v));
  }
  apsim::Simulator sim(net);
  const InterleavedSpec spec{data.dims()};
  const auto events = sim.run(encode_interleaved_batch(queries));

  std::vector<std::vector<knn::Neighbor>> results(queries.size());
  const std::size_t want = std::min(k, data.size());
  for (const apsim::ReportEvent& e : events) {
    const auto [query, distance] = spec.decode(e.cycle);
    if (query >= queries.size()) {
      throw std::logic_error("interleaved_knn_search: stray report");
    }
    auto& list = results[query];
    if (list.size() < want ||
        distance <= list.back().distance) {
      list.push_back({e.report_code, static_cast<std::uint32_t>(distance)});
    }
  }
  for (auto& list : results) {
    std::stable_sort(list.begin(), list.end());
    if (list.size() > want) {
      list.resize(want);
    }
  }
  return results;
}

}  // namespace apss::core
