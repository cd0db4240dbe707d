#include "core/opt/vector_packing.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

namespace apss::core {

using anml::AutomataNetwork;
using anml::CounterPort;
using anml::ElementId;
using anml::StartKind;
using anml::SymbolSet;

PackedGroupLayout append_packed_group(AutomataNetwork& network,
                                      const knn::BinaryDataset& data,
                                      std::size_t begin, std::size_t count,
                                      const VectorPackingOptions& options) {
  if (count == 0 || begin + count > data.size()) {
    throw std::invalid_argument("append_packed_group: bad range");
  }
  const std::size_t dims = data.dims();
  if (dims == 0) {
    throw std::invalid_argument("append_packed_group: dims must be >= 1");
  }
  const std::string prefix = "g" + std::to_string(begin) + ".";

  PackedGroupLayout layout;
  layout.collector_levels =
      options.style == CollectorStyle::kFlat
          ? 1
          : collector_levels_for(dims, options.macro);

  // --- Shared guard + backbone chain ---------------------------------------
  layout.guard = network.add_ste(SymbolSet::single(Alphabet::kSof),
                                 StartKind::kAllInput, prefix + "guard");
  ElementId prev = layout.guard;
  layout.chain.reserve(dims);
  for (std::size_t i = 0; i < dims; ++i) {
    const ElementId star = network.add_ste(
        SymbolSet::all(), StartKind::kNone, prefix + "chain" + std::to_string(i));
    network.connect(prev, star);
    layout.chain.push_back(star);
    prev = star;
  }

  // --- The vector ladder: distinct value states per dimension ---------------
  // per_dim_value[i][b] = state matching bit value b at dim i (or invalid).
  std::vector<std::array<ElementId, 2>> per_dim_value(
      dims, {anml::kInvalidElement, anml::kInvalidElement});
  layout.value_states.resize(dims);
  for (std::size_t i = 0; i < dims; ++i) {
    const ElementId driver = i == 0 ? layout.guard : layout.chain[i - 1];
    for (int b = 0; b < 2; ++b) {
      bool needed = false;
      for (std::size_t v = 0; v < count && !needed; ++v) {
        needed = data.get(begin + v, i) == static_cast<bool>(b);
      }
      if (!needed) {
        continue;
      }
      const ElementId state = network.add_ste(
          slice_match_symbols(b != 0, options.macro.bit_slice),
          StartKind::kNone,
          prefix + "val" + std::to_string(i) + "_" + std::to_string(b));
      network.connect(driver, state);
      per_dim_value[i][b] = state;
      layout.value_states[i].push_back(state);
    }
  }

  // --- Shared sorting machinery ---------------------------------------------
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
  network.connect(layout.sort_state, layout.sort_state);
  layout.eof_state = network.add_ste(SymbolSet::single(Alphabet::kEof),
                                     StartKind::kNone, prefix + "eof");
  network.connect(layout.sort_state, layout.eof_state);

  // --- Per-vector collectors, counter, report -------------------------------
  for (std::size_t v = 0; v < count; ++v) {
    const std::uint32_t code = static_cast<std::uint32_t>(begin + v);
    const std::string vp = prefix + "v" + std::to_string(v) + ".";
    const ElementId counter = network.add_counter(
        static_cast<std::uint32_t>(dims), anml::CounterMode::kPulse,
        vp + "ihd");

    // Leaves along this vector's bit pattern.
    std::vector<ElementId> level(dims);
    for (std::size_t i = 0; i < dims; ++i) {
      level[i] = per_dim_value[i][data.get(begin + v, i) ? 1 : 0];
    }

    std::vector<ElementId> group_collectors;
    if (options.style == CollectorStyle::kFlat) {
      const ElementId collector = network.add_ste(
          SymbolSet::all(), StartKind::kNone, vp + "col");
      for (const ElementId leaf : level) {
        network.connect(leaf, collector);
      }
      group_collectors.push_back(collector);
      network.connect(collector, counter, CounterPort::kCountEnable);
    } else if (append_collector_tree(network, std::move(level), counter, vp,
                                     options.macro, group_collectors) !=
               layout.collector_levels) {
      throw std::logic_error("append_packed_group: depth mismatch");
    }

    network.connect(layout.sort_state, counter, CounterPort::kCountEnable);
    network.connect(layout.eof_state, counter, CounterPort::kReset);
    const ElementId report =
        network.add_reporting_ste(SymbolSet::all(), code, vp + "report");
    network.connect(counter, report);

    layout.counters.push_back(counter);
    layout.reports.push_back(report);
    layout.collectors.push_back(std::move(group_collectors));
  }
  return layout;
}

std::vector<PackedGroupLayout> build_packed_network(
    AutomataNetwork& network, const knn::BinaryDataset& data,
    const VectorPackingOptions& options) {
  if (options.group_size == 0) {
    throw std::invalid_argument("build_packed_network: group_size must be >= 1");
  }
  std::vector<PackedGroupLayout> layouts;
  for (std::size_t begin = 0; begin < data.size();
       begin += options.group_size) {
    const std::size_t count = std::min(options.group_size, data.size() - begin);
    layouts.push_back(append_packed_group(network, data, begin, count, options));
  }
  return layouts;
}

PackingSavings packing_savings(const knn::BinaryDataset& data,
                               const VectorPackingOptions& options) {
  PackingSavings s;
  {
    AutomataNetwork unpacked("unpacked");
    for (std::size_t i = 0; i < data.size(); ++i) {
      append_hamming_macro(unpacked, data.vector(i),
                           static_cast<std::uint32_t>(i), options.macro);
    }
    s.unpacked_stes = unpacked.stats().ste_count;
  }
  {
    AutomataNetwork packed("packed");
    build_packed_network(packed, data, options);
    s.packed_stes = packed.stats().ste_count;
  }
  return s;
}

}  // namespace apss::core
