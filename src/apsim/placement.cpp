#include "apsim/placement.hpp"

#include <algorithm>
#include <cmath>

#include "util/ceil_div.hpp"

namespace apss::apsim {

using util::ceil_div;

namespace {

struct Component {
  std::size_t stes = 0;
  std::size_t counters = 0;
  std::size_t booleans = 0;
  std::size_t reporting = 0;
};

/// Block area one half core charges for the resources packed into it.
std::size_t half_core_blocks(const Component& usage,
                             const DeviceGeometry& g,
                             double overhead) {
  const auto placed_stes = static_cast<std::size_t>(
      std::ceil(static_cast<double>(usage.stes) * overhead));
  std::size_t blocks = ceil_div(placed_stes, g.stes_per_block);
  blocks = std::max(blocks, ceil_div(usage.counters, g.counters_per_block));
  blocks = std::max(blocks, ceil_div(usage.booleans, g.booleans_per_block));
  blocks = std::max(blocks, ceil_div(usage.reporting, g.max_reporting_per_block));
  return blocks;
}

bool component_fits(const Component& current, const Component& add,
                    const DeviceGeometry& g, double overhead) {
  Component merged = current;
  merged.stes += add.stes;
  merged.counters += add.counters;
  merged.booleans += add.booleans;
  merged.reporting += add.reporting;
  return half_core_blocks(merged, g, overhead) <= g.blocks_per_half_core;
}

}  // namespace

MacroFootprint footprint_of(const anml::AutomataNetwork& network) {
  const anml::NetworkStats s = network.stats();
  return {s.ste_count, s.counter_count, s.boolean_count, s.reporting_count};
}

PlacementResult place(const anml::AutomataNetwork& network,
                      const DeviceGeometry& geometry,
                      const PlacementOptions& options) {
  PlacementResult result;

  // --- Gather components ---------------------------------------------------
  std::vector<std::uint32_t> labels;
  const std::size_t ncomp = network.components(labels);
  result.component_count = ncomp;
  std::vector<Component> components(ncomp);
  for (std::size_t i = 0; i < network.size(); ++i) {
    const anml::Element& e = network.element(static_cast<anml::ElementId>(i));
    Component& c = components[labels[i]];
    switch (e.kind) {
      case anml::ElementKind::kSte:
        ++c.stes;
        ++result.ste_count;
        break;
      case anml::ElementKind::kCounter:
        ++c.counters;
        ++result.counter_count;
        break;
      case anml::ElementKind::kBoolean:
        ++c.booleans;
        ++result.boolean_count;
        break;
    }
    if (e.reporting) {
      ++c.reporting;
      ++result.reporting_count;
    }
  }

  // --- Routability ----------------------------------------------------------
  {
    std::vector<std::size_t> fin(network.size(), 0), fout(network.size(), 0);
    for (const anml::Edge& e : network.edges()) {
      ++fout[e.from];
      ++fin[e.to];
    }
    result.routed = true;
    for (std::size_t i = 0; i < network.size(); ++i) {
      result.max_observed_fan_in = std::max(result.max_observed_fan_in, fin[i]);
      result.max_observed_fan_out =
          std::max(result.max_observed_fan_out, fout[i]);
      if (fin[i] > options.max_fan_in) {
        result.routed = false;
        result.issues.push_back(
            "element " + std::to_string(i) + " fan-in " +
            std::to_string(fin[i]) + " exceeds routing limit " +
            std::to_string(options.max_fan_in) + " (partially routed)");
      }
      if (fout[i] > options.max_fan_out) {
        result.routed = false;
        result.issues.push_back(
            "element " + std::to_string(i) + " fan-out " +
            std::to_string(fout[i]) + " exceeds routing limit " +
            std::to_string(options.max_fan_out) + " (partially routed)");
      }
    }
  }

  // --- Half-core packing (first-fit decreasing on STE size) ----------------
  std::vector<std::size_t> order(ncomp);
  for (std::size_t i = 0; i < ncomp; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return components[a].stes > components[b].stes;
  });

  std::vector<Component> half_cores;  // running usage per opened half core
  result.placed = true;
  for (const std::size_t ci : order) {
    const Component& c = components[ci];
    if (c.stes == 0 && c.counters == 0 && c.booleans == 0) {
      continue;
    }
    // A single NFA may not span half cores.
    Component empty;
    if (!component_fits(empty, c, geometry, options.routing_overhead)) {
      result.placed = false;
      result.issues.push_back("component with " + std::to_string(c.stes) +
                              " STEs exceeds half-core capacity");
      continue;
    }
    bool assigned = false;
    for (Component& hc : half_cores) {
      if (component_fits(hc, c, geometry, options.routing_overhead)) {
        hc.stes += c.stes;
        hc.counters += c.counters;
        hc.booleans += c.booleans;
        hc.reporting += c.reporting;
        assigned = true;
        break;
      }
    }
    if (!assigned) {
      half_cores.push_back(c);
    }
  }

  if (half_cores.size() > geometry.half_cores()) {
    result.placed = false;
    result.issues.push_back(
        "design needs " + std::to_string(half_cores.size()) +
        " half cores but the device has " +
        std::to_string(geometry.half_cores()));
  }

  result.half_cores_used = half_cores.size();
  for (const Component& hc : half_cores) {
    result.blocks_used +=
        half_core_blocks(hc, geometry, options.routing_overhead);
  }
  return result;
}

std::size_t max_copies(const MacroFootprint& macro,
                       const DeviceGeometry& geometry,
                       const PlacementOptions& options) {
  if (macro.stes == 0) {
    return 0;
  }
  // Pack identical macros into one half core, then scale by half cores.
  const auto placed_ste = static_cast<double>(macro.stes) * options.routing_overhead;
  std::size_t per_hc = static_cast<std::size_t>(
      std::floor(static_cast<double>(geometry.stes_per_half_core()) / placed_ste));
  if (macro.counters > 0) {
    per_hc = std::min(per_hc, geometry.blocks_per_half_core *
                                  geometry.counters_per_block / macro.counters);
  }
  if (macro.booleans > 0) {
    per_hc = std::min(per_hc, geometry.blocks_per_half_core *
                                  geometry.booleans_per_block / macro.booleans);
  }
  if (macro.reporting > 0) {
    per_hc = std::min(per_hc,
                      geometry.blocks_per_half_core *
                          geometry.max_reporting_per_block / macro.reporting);
  }
  return per_hc * geometry.half_cores();
}

}  // namespace apss::apsim
