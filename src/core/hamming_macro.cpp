#include "core/hamming_macro.hpp"

#include <stdexcept>
#include <string>

#include "util/ceil_div.hpp"

namespace apss::core {

using anml::AutomataNetwork;
using anml::CounterPort;
using anml::ElementId;
using anml::StartKind;
using anml::SymbolSet;

using util::ceil_div;

namespace {

void check_options(std::size_t dims, const HammingMacroOptions& options) {
  if (dims == 0) {
    throw std::invalid_argument("hamming macro: dims must be >= 1");
  }
  if (options.collector_fan_in < 2) {
    throw std::invalid_argument("hamming macro: collector_fan_in must be >= 2");
  }
  if (options.max_counter_fan_in < 2) {
    throw std::invalid_argument(
        "hamming macro: max_counter_fan_in must be >= 2");
  }
  if (options.bit_slice > 6) {
    throw std::invalid_argument("hamming macro: bit_slice must be 0..6");
  }
}

}  // namespace

SymbolSet slice_match_symbols(bool bit, std::size_t slice) {
  const auto mask = static_cast<std::uint8_t>(Alphabet::kControlFlag |
                                              (1u << slice));
  const auto value = static_cast<std::uint8_t>(bit ? (1u << slice) : 0u);
  return SymbolSet::ternary(value, mask);
}

std::size_t collector_levels_for(std::size_t dims,
                                 const HammingMacroOptions& options) {
  check_options(dims, options);
  std::size_t nodes = ceil_div(dims, options.collector_fan_in);
  std::size_t levels = 1;
  // +1: the sort state shares the counter's enable port with the roots.
  while (nodes + 1 > options.max_counter_fan_in) {
    nodes = ceil_div(nodes, options.collector_fan_in);
    ++levels;
  }
  return levels;
}

std::size_t append_collector_tree(AutomataNetwork& network,
                                  std::vector<ElementId> leaves,
                                  ElementId counter, const std::string& prefix,
                                  const HammingMacroOptions& options,
                                  std::vector<ElementId>& nodes) {
  std::size_t levels = 0;
  do {
    const std::size_t groups =
        ceil_div(leaves.size(), options.collector_fan_in);
    std::vector<ElementId> next;
    next.reserve(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      const ElementId node = network.add_ste(
          SymbolSet::all(), StartKind::kNone,
          prefix + "col" + std::to_string(levels) + "_" + std::to_string(g));
      const std::size_t begin = g * options.collector_fan_in;
      const std::size_t end =
          std::min(leaves.size(), begin + options.collector_fan_in);
      for (std::size_t i = begin; i < end; ++i) {
        network.connect(leaves[i], node);
      }
      nodes.push_back(node);
      next.push_back(node);
    }
    leaves = std::move(next);
    ++levels;
    // +1: the sort state shares the counter's enable port with the roots.
  } while (leaves.size() + 1 > options.max_counter_fan_in);
  for (const ElementId root : leaves) {
    network.connect(root, counter, CounterPort::kCountEnable);
  }
  return levels;
}

MacroLayout append_hamming_macro(AutomataNetwork& network,
                                 const util::BitVector& vec,
                                 std::uint32_t report_code,
                                 const HammingMacroOptions& options) {
  const std::size_t dims = vec.size();
  check_options(dims, options);

  MacroLayout layout;
  const std::string prefix = "v" + std::to_string(report_code) + ".";

  // --- Guard state: all-input start matching SOF (Fig. 2a) -----------------
  layout.guard = network.add_ste(SymbolSet::single(Alphabet::kSof),
                                 StartKind::kAllInput, prefix + "guard");

  // --- Compute states: "*" backbone + per-dimension matching states --------
  layout.chain.reserve(dims);
  layout.match.reserve(dims);
  ElementId prev = layout.guard;
  for (std::size_t i = 0; i < dims; ++i) {
    const ElementId star = network.add_ste(SymbolSet::all(), StartKind::kNone,
                                           prefix + "chain" + std::to_string(i));
    const ElementId m =
        network.add_ste(slice_match_symbols(vec.get(i), options.bit_slice),
                        StartKind::kNone, prefix + "match" + std::to_string(i));
    network.connect(prev, star);
    network.connect(prev, m);
    layout.chain.push_back(star);
    layout.match.push_back(m);
    prev = star;
  }

  // --- Inverted Hamming distance counter (threshold d, pulse mode) ---------
  layout.counter =
      network.add_counter(static_cast<std::uint32_t>(dims),
                          anml::CounterMode::kPulse, prefix + "ihd");

  // --- Collector reduction tree ("*" states, Sec. III-A) -------------------
  // Matching states feed collectors, not the counter (Fig. 2a).
  layout.collector_levels =
      append_collector_tree(network, layout.match, layout.counter, prefix,
                            options, layout.collectors);

  // --- Sorting macro (Fig. 2b) ----------------------------------------------
  // Bridge delay chain: aligns the sort state's first increment to land
  // strictly after the last collector increment (L cycles of tree latency).
  ElementId tail = layout.chain.back();
  for (std::size_t i = 0; i < layout.collector_levels; ++i) {
    const ElementId b = network.add_ste(SymbolSet::all(), StartKind::kNone,
                                        prefix + "bridge" + std::to_string(i));
    network.connect(tail, b);
    layout.bridge.push_back(b);
    tail = b;
  }

  layout.sort_state = network.add_ste(SymbolSet::all_except(Alphabet::kEof),
                                      StartKind::kNone, prefix + "sort");
  network.connect(tail, layout.sort_state);
  network.connect(layout.sort_state, layout.sort_state);  // self-loop
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

}  // namespace apss::core
