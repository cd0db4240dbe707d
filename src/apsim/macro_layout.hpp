#pragma once
// Element ids of the paper's macro shapes inside a configuration network.
// The core builders return these layouts (core::append_hamming_macro,
// core::build_multiplexed_network, core::append_packed_group), and
// apsim::BatchProgram::try_compile takes them as its input unchanged. This
// header needs only the element model, so building a macro does not pull
// in the simulators.

#include <cstddef>
#include <vector>

#include "anml/element.hpp"

namespace apss::apsim {

/// One plain Hamming/sorting macro (Figs. 2a/2b). Multiplexed macros
/// (Fig. 6) have the same shape; only their matching-state classes differ
/// per slice.
struct MacroLayout {
  anml::ElementId guard = anml::kInvalidElement;
  std::vector<anml::ElementId> chain;       ///< the "*" backbone, one per dim
  std::vector<anml::ElementId> match;       ///< matching state per dim
  std::vector<anml::ElementId> collectors;  ///< all collector-tree nodes
  std::vector<anml::ElementId> bridge;      ///< delay chain before the sort state
  anml::ElementId sort_state = anml::kInvalidElement;
  anml::ElementId eof_state = anml::kInvalidElement;
  anml::ElementId counter = anml::kInvalidElement;
  anml::ElementId report = anml::kInvalidElement;
  std::size_t collector_levels = 1;  ///< tree depth L (timing parameter)
};

/// One vector-packed group (Fig. 5 / Sec. VI-A). The guard, backbone,
/// bridge, sort and EOF states are shared by every vector of the group;
/// each vector keeps its own collectors, counter and report (one LANE
/// each). Invariants: the shared vectors have one entry per dimension
/// (chain, value_states) or per level (bridge); counters/reports/collectors
/// have one entry per packed vector, in counter creation order; every
/// per-vector collector tree has depth exactly `collector_levels` and
/// collects each dimension exactly once.
struct PackedGroupLayout {
  anml::ElementId guard = anml::kInvalidElement;  ///< shared SOF guard
  std::vector<anml::ElementId> chain;  ///< shared "*" ladder, one per dim
  /// value_states[i] = ids of the distinct-value states at dimension i
  /// (index 0 = bit value 0 if present, then bit value 1).
  std::vector<std::vector<anml::ElementId>> value_states;
  std::vector<anml::ElementId> bridge;  ///< shared delay chain, L states
  anml::ElementId sort_state = anml::kInvalidElement;
  anml::ElementId eof_state = anml::kInvalidElement;
  /// Per packed vector:
  std::vector<anml::ElementId> counters;
  std::vector<anml::ElementId> reports;
  std::vector<std::vector<anml::ElementId>> collectors;
  std::size_t collector_levels = 1;  ///< tree depth L (1 for flat collectors)
};

}  // namespace apss::apsim
