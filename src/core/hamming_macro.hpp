#pragma once
// Hamming + sorting macro builder (Figs. 2a / 2b of the paper).
//
// One macro per dataset vector. The Hamming half counts matching dimensions
// into an "inverted Hamming distance" counter; the sorting half uniformly
// increments that counter during the fill phase so the report time encodes
// the vector's Hamming distance (temporally encoded sort, Sec. III-B).

#include <cstdint>
#include <string>
#include <vector>

#include "anml/network.hpp"
#include "apsim/macro_layout.hpp"
#include "core/design.hpp"
#include "util/bitvector.hpp"

namespace apss::core {

/// Element ids of one placed macro; the bit-parallel compiler's input.
using apsim::MacroLayout;

struct HammingMacroOptions {
  /// Maximum children per collector-tree node (the paper's reduction tree
  /// "to limit the maximum state fan in and improve routability").
  std::size_t collector_fan_in = 16;
  /// Maximum collector roots feeding the counter's enable port directly.
  std::size_t max_counter_fan_in = 32;
  /// Which bit slice of the data symbols the matching states observe
  /// (slice 0 for the base design; 0..6 under stream multiplexing).
  std::size_t bit_slice = 0;
};

/// Symbol class of a matching state: data symbol (bit 7 clear) whose
/// `slice` bit equals `bit`. This is the ternary match of Sec. VI-B.
anml::SymbolSet slice_match_symbols(bool bit, std::size_t slice);

/// Appends the macro encoding `vec` to `network`; report events carry
/// `report_code` (the dataset vector id). Returns the element layout.
MacroLayout append_hamming_macro(anml::AutomataNetwork& network,
                                 const util::BitVector& vec,
                                 std::uint32_t report_code,
                                 const HammingMacroOptions& options = {});

/// Collector-tree depth the builder will use for `dims` under `options`
/// (needed by the stream encoder before any macro is built).
std::size_t collector_levels_for(std::size_t dims,
                                 const HammingMacroOptions& options = {});

/// Appends the collector reduction tree ("*" states, Sec. III-A) over
/// `leaves` and wires its roots to `counter`'s count-enable port. Leaves
/// always pass through at least one level; each node collects up to
/// collector_fan_in nodes of the level below, and levels are added until
/// the roots plus the sort state fit max_counter_fan_in. Nodes are named
/// `prefix` + "col<level>_<index>" and appended to `nodes` in creation
/// order. Returns the depth (collector_levels_for(leaves.size(), options)).
std::size_t append_collector_tree(anml::AutomataNetwork& network,
                                  std::vector<anml::ElementId> leaves,
                                  anml::ElementId counter,
                                  const std::string& prefix,
                                  const HammingMacroOptions& options,
                                  std::vector<anml::ElementId>& nodes);

}  // namespace apss::core
