#pragma once
// Vector packing (Sec. VI-A, Fig. 5): overlay several Hamming macros onto a
// shared "vector ladder" so common structure is paid for once.
//
// Construction. The group shares the guard state, the "*" backbone chain,
// the bridge, the sort state and the EOF state. Per dimension, one VALUE
// state exists per distinct bit value among the group's vectors (1 or 2
// states instead of group_size). Each packed vector keeps its own collector
// stage, inverted-Hamming-distance counter, and reporting state, wired to
// the value states along its own bit pattern.
//
// Routability. The paper found packing "places but only partially routes"
// for high-dimensional vectors. With kFlat collectors (one collector STE
// per vector watching all d value states) the collector fan-in is d, which
// exceeds the routing matrix limit for d >= 64 — exactly the paper's
// failure. kTree collectors restore routability at the cost of extra
// states, modelling what a mature toolchain could do (Sec. VI-A outlook).

#include <cstdint>
#include <vector>

#include "anml/network.hpp"
#include "apsim/macro_layout.hpp"
#include "core/hamming_macro.hpp"
#include "knn/dataset.hpp"

namespace apss::core {

enum class CollectorStyle {
  kFlat,  ///< one collector per vector, fan-in = d (paper-faithful naive)
  kTree,  ///< per-vector reduction tree, fan-in bounded (routable)
};

struct VectorPackingOptions {
  /// Vectors overlaid per shared ladder (the paper evaluates g = 4 and 8).
  std::size_t group_size = 4;
  /// Per-vector collector construction; see CollectorStyle.
  CollectorStyle style = CollectorStyle::kFlat;
  HammingMacroOptions macro;  ///< fan-in limits for kTree, bit slice, etc.
};

/// Element ids of one packed group; the bit-parallel compiler's input.
using apsim::PackedGroupLayout;

/// Packs `count` vectors of `data` starting at `begin` into one NFA;
/// report codes are the global ids begin..begin+count-1.
PackedGroupLayout append_packed_group(anml::AutomataNetwork& network,
                                      const knn::BinaryDataset& data,
                                      std::size_t begin, std::size_t count,
                                      const VectorPackingOptions& options = {});

/// Builds a whole dataset as packed groups (last group may be smaller).
/// All groups share one network; returns per-group layouts.
std::vector<PackedGroupLayout> build_packed_network(
    anml::AutomataNetwork& network, const knn::BinaryDataset& data,
    const VectorPackingOptions& options = {});

/// The paper's analytical resource model: STE cost of g unpacked macros vs
/// the packed group, computed from REAL constructed networks (1 NFA state
/// ~= 1 STE resource, Sec. VII-D).
struct PackingSavings {
  std::size_t unpacked_stes = 0;
  std::size_t packed_stes = 0;
  double ratio() const {
    return packed_stes == 0
               ? 0.0
               : static_cast<double>(unpacked_stes) /
                     static_cast<double>(packed_stes);
  }
};

PackingSavings packing_savings(const knn::BinaryDataset& data,
                               const VectorPackingOptions& options = {});

}  // namespace apss::core
