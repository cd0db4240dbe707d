#include "apsim/batch_simulator.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <functional>
#include <stdexcept>

#include "util/fault_injection.hpp"

namespace apss::apsim {

const char* to_string(MacroFamily family) noexcept {
  switch (family) {
    case MacroFamily::kHamming: return "hamming";
    case MacroFamily::kPacked: return "packed";
    case MacroFamily::kMultiplexed: return "multiplexed";
  }
  return "?";
}

using anml::CounterPort;
using anml::Element;
using anml::ElementId;
using anml::ElementKind;
using anml::StartKind;
using anml::SymbolSet;

namespace {

/// Structural role of an element inside the macro set. kMatch doubles as
/// the packed shape's value-state role (both are per-dimension matching
/// states; only their fan-out wiring differs).
enum class Role : std::uint8_t {
  kUnassigned,
  kGuard,
  kChain,
  kMatch,
  kCollector,
  kBridge,
  kSort,
  kEof,
  kCounter,
  kReport,
};

/// (role, owner, pos) of one element. `owner` is the group index on shared
/// roles (guard/chain/match/bridge/sort/eof) and the LANE index on per-lane
/// roles (collector/counter/report).
struct Slot {
  Role role = Role::kUnassigned;
  std::uint32_t owner = 0;
  std::uint32_t pos = 0;
};

/// A try_compile front end's role assignment. A lane is one (counter,
/// report) pair; a group is the lanes that share one guard, ladder, bridge,
/// sort and EOF state: a vector-packed group (Fig. 5), or a plain or
/// multiplexed macro as a group of one lane.
struct Roles {
  Roles(bool packed_shape, std::size_t dim_count, std::size_t level_count,
        std::size_t elements)
      : packed(packed_shape), dims(dim_count), levels(level_count),
        slots(elements) {}

  bool packed;  ///< from the packed overload (family kPacked)
  std::size_t dims;
  std::size_t levels;
  std::vector<Slot> slots;                 ///< per element
  std::vector<ElementId> group_sort;       ///< per group: its sort state
  std::vector<std::uint32_t> lane_group;   ///< per lane
  std::vector<ElementId> lane_counter;     ///< per lane
  std::vector<ElementId> lane_report;      ///< per lane
  std::vector<std::span<const ElementId>> lane_collectors;  ///< per lane

  /// Gives `id` its slot; false when it is out of range or already taken.
  bool assign(ElementId id, Role role, std::size_t owner, std::size_t pos) {
    if (id >= slots.size() || slots[id].role != Role::kUnassigned) {
      return false;
    }
    slots[id] = {role, static_cast<std::uint32_t>(owner),
                 static_cast<std::uint32_t>(pos)};
    return true;
  }
  /// Opens a group with its shared states (value states are assigned by
  /// the caller, owner = this group's index).
  bool add_group(ElementId guard, std::span<const ElementId> chain,
                 std::span<const ElementId> bridge, ElementId sort,
                 ElementId eof) {
    const std::size_t g = group_sort.size();
    group_sort.push_back(sort);
    bool ok = assign(guard, Role::kGuard, g, 0) &&
              assign(sort, Role::kSort, g, 0) && assign(eof, Role::kEof, g, 0);
    for (std::size_t i = 0; ok && i < chain.size(); ++i) {
      ok = assign(chain[i], Role::kChain, g, i);
    }
    for (std::size_t i = 0; ok && i < bridge.size(); ++i) {
      ok = assign(bridge[i], Role::kBridge, g, i);
    }
    return ok;
  }
  /// Adds a lane to the last group opened.
  bool add_lane(ElementId counter, ElementId report,
                std::span<const ElementId> collectors) {
    const std::size_t l = lane_report.size();
    lane_group.push_back(static_cast<std::uint32_t>(group_sort.size() - 1));
    lane_counter.push_back(counter);
    lane_report.push_back(report);
    lane_collectors.push_back(collectors);
    bool ok = assign(counter, Role::kCounter, l, 0) &&
              assign(report, Role::kReport, l, 0);
    for (std::size_t c = 0; ok && c < collectors.size(); ++c) {
      ok = assign(collectors[c], Role::kCollector, l, c);
    }
    return ok;
  }
};

/// Fills *reason (when non-null) and returns the declined, null program.
std::shared_ptr<const BatchProgram> decline(std::string* reason,
                                            std::string why) {
  if (reason != nullptr) {
    *reason = std::move(why);
  }
  return nullptr;
}

/// Returns the only symbol of a single-symbol class, or -1.
int single_symbol(const SymbolSet& s) {
  if (s.count() != 1) {
    return -1;
  }
  for (int sym = 0; sym < 256; ++sym) {
    if (s.test(static_cast<std::uint8_t>(sym))) {
      return sym;
    }
  }
  return -1;
}

/// Interns `symbols` into `classes`, returning its index, or -1 when the
/// class budget (kMaxBatchMatchClasses) is exhausted.
int intern_class(std::vector<SymbolSet>& classes, const SymbolSet& symbols) {
  const auto it = std::find(classes.begin(), classes.end(), symbols);
  if (it != classes.end()) {
    return static_cast<int>(it - classes.begin());
  }
  if (classes.size() >= kMaxBatchMatchClasses) {
    return -1;
  }
  classes.push_back(symbols);
  return static_cast<int>(classes.size() - 1);
}

/// Plain vs multiplexed (for BatchProgram::family()): multiplexed matching
/// classes are the slice-ternary pairs 0b*......b — ternary(value, mask)
/// with mask = control bit | one payload bit (core::Alphabet puts the
/// control flag at bit 7). A class set spanning more than one payload
/// slice is the Fig. 6 shape; anything else counts as plain Hamming.
MacroFamily detect_hamming_family(const std::vector<SymbolSet>& classes) {
  std::uint8_t slices_used = 0;
  for (const SymbolSet& c : classes) {
    bool matched = false;
    for (std::size_t s = 0; s < 7 && !matched; ++s) {
      const auto mask = static_cast<std::uint8_t>(0x80u | (1u << s));
      for (int b = 0; b < 2 && !matched; ++b) {
        const auto value = static_cast<std::uint8_t>(b ? (1u << s) : 0u);
        if (c == SymbolSet::ternary(value, mask)) {
          slices_used |= static_cast<std::uint8_t>(1u << s);
          matched = true;
        }
      }
    }
    if (!matched) {
      return MacroFamily::kHamming;  // free-form classes: the plain shape
    }
  }
  return std::popcount(slices_used) > 1 ? MacroFamily::kMultiplexed
                                        : MacroFamily::kHamming;
}

// Required-out-edge bookkeeping bits (per role; see compile_roles).
constexpr std::uint8_t kSawFirst = 1;    // chain succ / collector parent / ...
constexpr std::uint8_t kSawSecond = 2;   // match succ / counter enable
constexpr std::uint8_t kSawThird = 4;    // sort -> eof
// Per-lane counter inputs.
constexpr std::uint8_t kSortEnable = 1;
constexpr std::uint8_t kEofReset = 2;

/// Per-element checks: element kinds, start kinds, reporting flags,
/// guard/EOF single-symbol uniformity, match-class interning (into
/// `classes`, recorded per element in `elem_class`), counter
/// mode/threshold. Returns "" on success, else the failure reason. The
/// sort-class check needs the resolved EOF symbol and follows it.
std::string check_element_properties(const anml::AutomataNetwork& network,
                                     const std::vector<Slot>& slots,
                                     std::size_t dims, int& sof, int& eof,
                                     std::vector<SymbolSet>& classes,
                                     std::vector<std::uint8_t>& elem_class) {
  for (ElementId id = 0; id < network.size(); ++id) {
    const Element& e = network.element(id);
    const Role role = slots[id].role;
    const bool is_counter = role == Role::kCounter;
    if (!is_counter && e.kind != ElementKind::kSte) {
      return "non-STE element in an STE slot";
    }
    if (!is_counter && e.start !=
        (role == Role::kGuard ? StartKind::kAllInput : StartKind::kNone)) {
      return "unexpected start kind";
    }
    if (e.reporting != (role == Role::kReport)) {
      return "reporting flag on an unexpected element";
    }
    switch (role) {
      case Role::kGuard: {
        const int sym = single_symbol(e.symbols);
        if (sym < 0 || (sof >= 0 && sym != sof)) {
          return "guard class is not one uniform symbol";
        }
        sof = sym;
        break;
      }
      case Role::kEof: {
        const int sym = single_symbol(e.symbols);
        if (sym < 0 || (eof >= 0 && sym != eof)) {
          return "eof class is not one uniform symbol";
        }
        eof = sym;
        break;
      }
      case Role::kMatch: {
        const int c = intern_class(classes, e.symbols);
        if (c < 0) {
          return "more than " + std::to_string(kMaxBatchMatchClasses) +
                 " distinct match classes";
        }
        elem_class[id] = static_cast<std::uint8_t>(c);
        break;
      }
      case Role::kChain:
      case Role::kCollector:
      case Role::kBridge:
      case Role::kReport:
        if (!e.symbols.is_all()) {
          return "backbone/collector/bridge/report class must be *";
        }
        break;
      case Role::kSort:
        break;  // checked against eof once eof is known
      case Role::kCounter:
        if (e.kind != ElementKind::kCounter ||
            e.mode != anml::CounterMode::kPulse ||
            e.threshold != static_cast<std::uint32_t>(dims)) {
          return "counter is not pulse-mode with threshold == dims";
        }
        break;
      case Role::kUnassigned:
        break;
    }
  }
  if (sof < 0 || eof < 0 || sof == eof) {
    return "guard/eof symbols missing or identical";
  }
  return "";
}

/// The one recognizer behind both try_compile overloads: verifies that the
/// role-assigned network is a supported homogeneous configuration (element
/// properties, edges, per-lane collector trees, required connections) and
/// packs it into a program, or declines with the first failure's reason.
std::shared_ptr<const BatchProgram> compile_roles(
    const anml::AutomataNetwork& network, const Roles& roles,
    SimOptions options, std::string* reason) {
  const std::string noun = roles.packed ? "packed group" : "macro";
  const std::vector<Slot>& slots = roles.slots;
  const std::size_t dims = roles.dims;
  const std::size_t levels = roles.levels;
  const std::size_t n = roles.lane_report.size();
  if (options.max_counter_increment != 1) {
    return decline(reason,
                   "bit-parallel backend requires max_counter_increment == 1 "
                   "(enables must OR together)");
  }
  if (dims == 0) {
    return decline(reason, noun + " has zero dimensions");
  }
  if (levels == 0 || levels > 63) {
    return decline(reason, "collector depth outside [1, 63]");
  }
  if (std::adjacent_find(roles.lane_counter.begin(), roles.lane_counter.end(),
                         std::greater_equal<>()) != roles.lane_counter.end()) {
    return decline(reason, "lanes are not in counter creation order "
                           "(within-cycle report order would diverge)");
  }
  for (ElementId id = 0; id < network.size(); ++id) {
    if (slots[id].role == Role::kUnassigned) {
      return decline(reason, "network contains elements outside the macro set");
    }
  }

  // --- Element property checks + match-class discovery ---------------------
  int sof = -1;
  int eof = -1;
  std::vector<SymbolSet> classes;
  std::vector<std::uint8_t> elem_class(network.size(), 0);
  if (std::string why = check_element_properties(network, slots, dims, sof,
                                                 eof, classes, elem_class);
      !why.empty()) {
    return decline(reason, std::move(why));
  }
  for (const ElementId sort : roles.group_sort) {
    if (!(network.element(sort).symbols ==
          SymbolSet::all_except(static_cast<std::uint8_t>(eof)))) {
      return decline(reason, "sort class must be all-except-eof");
    }
  }

  // --- Edge checks ----------------------------------------------------------
  // Every edge must be one of a group's internal connections: the ladder
  // fans out to the group's value states, which feed level-0 collectors of
  // any lane in the group, and the sort/eof states fan out to every lane's
  // counter. Each value state must be driven by the wavefront (a dead leaf
  // would desynchronise the lanes that collect it), hence has_driver.
  std::vector<std::uint8_t> saw(network.size(), 0);
  std::vector<std::uint8_t> has_driver(network.size(), 0);
  std::vector<std::vector<ElementId>> collector_in(network.size());
  std::vector<std::uint8_t> lane_inputs(n, 0);
  const auto group_of = [&](const Slot& s) {
    return s.role == Role::kCollector || s.role == Role::kCounter ||
                   s.role == Role::kReport
               ? roles.lane_group[s.owner]
               : s.owner;
  };
  for (const anml::Edge& edge : network.edges()) {
    if (edge.from >= network.size() || edge.to >= network.size()) {
      return decline(reason, "edge endpoint out of range");
    }
    if (edge.port == CounterPort::kThreshold) {
      return decline(reason, "dynamic-threshold edge");
    }
    const Slot& a = slots[edge.from];
    const Slot& b = slots[edge.to];
    if (group_of(a) != group_of(b)) {
      return decline(reason, "edge crosses " + noun + "s");
    }
    const bool same_lane = a.owner == b.owner;
    std::uint8_t bit = 0;  // the required connection it makes; 0 = illegal
    switch (a.role) {
      case Role::kGuard:
      case Role::kChain: {
        // The wavefront: guard -> dim 0, chain i -> dim i+1, last -> bridge.
        const std::size_t next = a.role == Role::kGuard ? 0 : a.pos + 1;
        if (next == dims) {
          bit = b.role == Role::kBridge && b.pos == 0 ? kSawFirst : 0;
        } else if (b.pos == next) {
          bit = b.role == Role::kChain   ? kSawFirst
                : b.role == Role::kMatch ? kSawSecond
                                         : 0;
          if (bit == kSawSecond) {
            has_driver[edge.to] = 1;
          }
        }
        break;
      }
      case Role::kMatch:
        if (b.role == Role::kCollector) {
          bit = kSawFirst;
          collector_in[edge.to].push_back(edge.from);
        }
        break;
      case Role::kCollector:
        if (same_lane && b.role == Role::kCollector) {
          bit = kSawFirst;
          collector_in[edge.to].push_back(edge.from);
        } else if (same_lane && b.role == Role::kCounter) {
          bit = kSawFirst | kSawSecond;  // root: feeds the counter directly
        }
        break;
      case Role::kBridge:
        if (a.pos + 1 < levels ? b.role == Role::kBridge && b.pos == a.pos + 1
                               : b.role == Role::kSort) {
          bit = kSawFirst;
        }
        break;
      case Role::kSort:
        if (b.role == Role::kSort && edge.to == edge.from) {
          bit = kSawFirst;
        } else if (b.role == Role::kCounter) {
          bit = kSawSecond;
          lane_inputs[b.owner] |= kSortEnable;
        } else if (b.role == Role::kEof) {
          bit = kSawThird;
        }
        break;
      case Role::kEof:
        if (b.role == Role::kCounter) {
          bit = kSawFirst;
          lane_inputs[b.owner] |= kEofReset;
        }
        break;
      case Role::kCounter:
        bit = same_lane && b.role == Role::kReport ? kSawFirst : 0;
        break;
      case Role::kReport:
      case Role::kUnassigned:
        break;
    }
    // Reset ports are driven by the EOF state alone, and it drives nothing
    // but reset ports.
    if (bit == 0 ||
        (edge.port == CounterPort::kReset) != (a.role == Role::kEof)) {
      return decline(reason, "unexpected edge for the " + noun + " shape");
    }
    saw[edge.from] |= bit;
  }

  // --- Per-lane collector trees -> the lane-mask rows -----------------------
  // Lane l's tree must reach its counter in exactly `levels` steps and
  // collect exactly one value state per dimension: that value state's
  // class IS lane l's class at that dimension. Layouts list collectors in
  // creation order (level by level), so inputs are assigned a level before
  // their parent is visited.
  BatchProgramState state;
  state.lanes = n;
  state.dims = dims;
  state.levels = levels;
  state.class_count = classes.size();
  const std::size_t words = (n + 63) / 64;
  state.dim_rows.assign(dims * classes.size() * words, 0);
  std::vector<std::int32_t> collector_level(network.size(), -1);
  std::vector<std::uint8_t> dim_seen(dims, 0);
  for (std::size_t lane = 0; lane < n; ++lane) {
    std::fill(dim_seen.begin(), dim_seen.end(), 0);
    for (const ElementId c : roles.lane_collectors[lane]) {
      if (collector_in[c].empty()) {
        return decline(reason, "collector with no inputs");
      }
      std::int32_t level = -2;
      for (const ElementId src : collector_in[c]) {
        std::int32_t in_level = collector_level[src];
        if (slots[src].role == Role::kMatch) {
          in_level = 0;
          const std::size_t dim = slots[src].pos;
          if (dim_seen[dim] != 0) {
            return decline(reason, "lane collects a dimension more than once");
          }
          dim_seen[dim] = 1;
          state.dim_rows[(dim * classes.size() + elem_class[src]) * words +
                         lane / 64] |= std::uint64_t{1} << (lane % 64);
        }
        if (in_level < 0 || (level != -2 && in_level != level)) {
          return decline(reason, "collector tree depth is not uniform");
        }
        level = in_level;
      }
      collector_level[c] = level + 1;
      const bool is_root = (saw[c] & kSawSecond) != 0;
      if (is_root !=
          (collector_level[c] == static_cast<std::int32_t>(levels))) {
        return decline(reason, "collector root depth != collector_levels");
      }
    }
    if (std::find(dim_seen.begin(), dim_seen.end(), 0) != dim_seen.end()) {
      return decline(reason, "lane does not collect every dimension");
    }
    if (lane_inputs[lane] != (kSortEnable | kEofReset)) {
      return decline(reason,
                     "lane counter is missing its sort enable or eof reset");
    }
  }

  // --- Required out-edges present? ------------------------------------------
  for (ElementId id = 0; id < network.size(); ++id) {
    std::uint8_t need = kSawFirst;  // collector, bridge, eof, counter
    switch (slots[id].role) {
      case Role::kGuard: need = kSawFirst | kSawSecond; break;
      case Role::kChain:
        if (slots[id].pos + 1 < dims) {
          need = kSawFirst | kSawSecond;
        }
        break;
      case Role::kMatch:
        if (has_driver[id] == 0) {
          return decline(reason, "value state is not driven by the wavefront");
        }
        break;
      case Role::kSort: need = kSawFirst | kSawSecond | kSawThird; break;
      case Role::kReport:
      case Role::kUnassigned: need = 0; break;
      default: break;
    }
    if ((saw[id] & need) != need) {
      return decline(reason, noun + " is missing a required connection");
    }
  }

  // --- Emit the program -----------------------------------------------------
  state.family =
      roles.packed ? MacroFamily::kPacked : detect_hamming_family(classes);
  state.sof = static_cast<std::uint8_t>(sof);
  state.eof = static_cast<std::uint8_t>(eof);
  for (int sym = 0; sym < 256; ++sym) {
    const auto s = static_cast<std::uint8_t>(sym);
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (classes[c].test(s)) {
        state.sym_classes[s] |= static_cast<std::uint16_t>(1u << c);
      }
    }
  }
  state.report_elem = roles.lane_report;
  for (const ElementId report : roles.lane_report) {
    state.report_code.push_back(network.element(report).report_code);
  }
  // Funnel through from_state so the invariants it enforces on artifact
  // load also hold for every freshly compiled program (a violation here
  // would be a recognizer bug, surfaced as a decline).
  return BatchProgram::from_state(state, nullptr);
}

/// In-place transpose of a 64x64 bit matrix: afterwards bit r of m[b] is
/// what bit b of m[r] was (Hacker's Delight's block-swap transpose, with
/// bit 0 as column 0).
void transpose64(std::uint64_t (&m)[64]) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k | j] ^= t;
      m[k] ^= t << j;
    }
  }
}

/// count_floor's entry for a closed-form frame that starts at symbol `pos`
/// of a run's stream of `frame`-symbol frames (see BatchSimulator::run).
std::uint32_t floor_at(std::span<const std::uint32_t> count_floor,
                       std::size_t pos, std::size_t frame) noexcept {
  if (count_floor.empty()) {
    return 0;
  }
  const std::size_t index = pos / frame;
  return index < count_floor.size() ? count_floor[index] : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Front ends: each assigns roles and checks its own layouts, then hands the
// assignment to compile_roles.
// ---------------------------------------------------------------------------

/// Plain Hamming/sorting macros and the multiplexed per-slice replicas
/// (which differ only in their matching-state classes): each macro is a
/// group of one lane.
std::shared_ptr<const BatchProgram> BatchProgram::try_compile(
    const anml::AutomataNetwork& network,
    std::span<const MacroLayout> macros, SimOptions options,
    std::string* reason) {
  if (macros.empty()) {
    return decline(reason, "no macros");
  }
  Roles roles(false, macros[0].match.size(), macros[0].collector_levels,
              network.size());
  for (std::size_t m = 0; m < macros.size(); ++m) {
    const MacroLayout& s = macros[m];
    if (s.match.size() != roles.dims || s.chain.size() != roles.dims ||
        s.collector_levels != roles.levels || s.bridge.size() != roles.levels) {
      return decline(reason, "macros are not structurally identical");
    }
    bool ok = roles.add_group(s.guard, s.chain, s.bridge, s.sort_state,
                              s.eof_state) &&
              roles.add_lane(s.counter, s.report, s.collectors);
    for (std::size_t i = 0; ok && i < roles.dims; ++i) {
      ok = roles.assign(s.match[i], Role::kMatch, m, i);
    }
    if (!ok) {
      return decline(reason,
                     "macro slot ids out of range or shared between macros");
    }
  }
  return compile_roles(network, roles, options, reason);
}

/// Vector-packed groups: a shared ladder with one or two value states per
/// dimension, and per-lane collectors, counter and report.
std::shared_ptr<const BatchProgram> BatchProgram::try_compile(
    const anml::AutomataNetwork& network,
    std::span<const PackedGroupLayout> groups, SimOptions options,
    std::string* reason) {
  if (groups.empty()) {
    return decline(reason, "no packed groups");
  }
  Roles roles(true, groups[0].chain.size(), groups[0].collector_levels,
              network.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const PackedGroupLayout& s = groups[g];
    const std::size_t count = s.counters.size();
    if (count == 0 || s.reports.size() != count ||
        s.collectors.size() != count) {
      return decline(reason, "packed group lane spans are inconsistent");
    }
    if (s.chain.size() != roles.dims || s.value_states.size() != roles.dims ||
        s.collector_levels != roles.levels || s.bridge.size() != roles.levels) {
      return decline(reason, "packed groups are not structurally identical");
    }
    bool ok = roles.add_group(s.guard, s.chain, s.bridge, s.sort_state,
                              s.eof_state);
    for (std::size_t i = 0; ok && i < roles.dims; ++i) {
      if (s.value_states[i].empty() || s.value_states[i].size() > 2) {
        return decline(reason, "dimension must carry one or two value states");
      }
      for (const ElementId value : s.value_states[i]) {
        ok = ok && roles.assign(value, Role::kMatch, g, i);
      }
    }
    for (std::size_t v = 0; ok && v < count; ++v) {
      ok = roles.add_lane(s.counters[v], s.reports[v], s.collectors[v]);
    }
    if (!ok) {
      return decline(reason,
                     "packed slot ids out of range or shared between roles");
    }
  }
  return compile_roles(network, roles, options, reason);
}

std::shared_ptr<const BatchProgram> BatchProgram::from_state(
    const BatchProgramState& s, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "batch program state: " + why;
    }
    return std::shared_ptr<const BatchProgram>{};
  };

  // Caps keep every derived size computation comfortably inside 64 bits
  // (dims * classes * words <= 2^20 * 2^4 * 2^20) and far beyond any board.
  constexpr std::uint64_t kMaxLanes = std::uint64_t{1} << 26;
  constexpr std::uint64_t kMaxDims = std::uint64_t{1} << 20;
  if (static_cast<std::uint8_t>(s.family) >
      static_cast<std::uint8_t>(MacroFamily::kMultiplexed)) {
    return fail("unknown macro family");
  }
  if (s.lanes == 0 || s.lanes > kMaxLanes) {
    return fail("lane count outside [1, 2^26]");
  }
  if (s.dims == 0 || s.dims > kMaxDims) {
    return fail("dimension count outside [1, 2^20]");
  }
  if (s.levels == 0 || s.levels > 63) {
    return fail("collector depth outside [1, 63]");
  }
  if (s.class_count == 0 || s.class_count > kMaxBatchMatchClasses) {
    return fail("match class count outside [1, " +
                std::to_string(kMaxBatchMatchClasses) + "]");
  }
  if (s.sof == s.eof) {
    return fail("guard and eof symbols are identical");
  }
  const auto class_mask = static_cast<std::uint16_t>(
      (std::uint32_t{1} << s.class_count) - 1);
  for (int sym = 0; sym < 256; ++sym) {
    if ((s.sym_classes[static_cast<std::size_t>(sym)] & ~class_mask) != 0) {
      return fail("symbol classifier references an out-of-range class");
    }
  }
  const std::uint64_t words = (s.lanes + 63) / 64;
  if (s.dim_rows.size() != s.dims * s.class_count * words) {
    return fail("lane-mask row table size does not match the geometry");
  }
  if (s.report_elem.size() != s.lanes || s.report_code.size() != s.lanes) {
    return fail("report tables do not hold one entry per lane");
  }
  const std::uint64_t valid_tail = (s.lanes % 64)
                                       ? (std::uint64_t{1} << (s.lanes % 64)) - 1
                                       : ~std::uint64_t{0};
  // Partition property: at every dimension the class rows must cover each
  // live lane exactly once and touch no dead tail bits — the execution
  // loop's no-masking fast path depends on it.
  for (std::uint64_t i = 0; i < s.dims; ++i) {
    for (std::uint64_t w = 0; w < words; ++w) {
      std::uint64_t seen = 0;
      for (std::uint64_t c = 0; c < s.class_count; ++c) {
        const std::uint64_t row = s.dim_rows[(i * s.class_count + c) * words + w];
        if ((row & seen) != 0) {
          return fail("a lane carries two classes at one dimension");
        }
        seen |= row;
      }
      const std::uint64_t valid = w + 1 == words ? valid_tail
                                                 : ~std::uint64_t{0};
      if (seen != valid) {
        return fail((seen & ~valid) != 0
                        ? "lane-mask rows set bits beyond the live lanes"
                        : "a lane has no class at one dimension");
      }
    }
  }

  auto prog = std::shared_ptr<BatchProgram>(new BatchProgram());
  prog->family_ = s.family;
  prog->macro_count_ = static_cast<std::size_t>(s.lanes);
  prog->dims_ = static_cast<std::size_t>(s.dims);
  prog->levels_ = static_cast<std::size_t>(s.levels);
  prog->words_ = static_cast<std::size_t>(words);
  prog->row_stride_ =
      (prog->words_ + kLaneBlockWords - 1) / kLaneBlockWords * kLaneBlockWords;
  prog->dim_words_ = static_cast<std::size_t>((s.dims + 63) / 64);
  prog->class_count_ = static_cast<std::size_t>(s.class_count);
  prog->valid_tail_ = valid_tail;
  prog->chain_tail_ = (s.dims % 64) ? (std::uint64_t{1} << (s.dims % 64)) - 1
                                    : ~std::uint64_t{0};
  prog->sof_ = s.sof;
  prog->eof_ = s.eof;
  prog->sym_classes_ = s.sym_classes;
  // Re-pack the canonical rows into the padded in-memory layout: every row
  // widens from words_ to row_stride_ 64-bit words, pad words zero, so any
  // execution width up to 512 bits can sweep whole rows untailed. This is
  // the only transform between the serialized image and execution — the
  // layout of the live words is unchanged (lane l at word l/64, bit l%64).
  prog->dim_rows_.assign(s.dims * s.class_count * prog->row_stride_, 0);
  for (std::uint64_t r = 0; r < s.dims * s.class_count; ++r) {
    std::copy_n(s.dim_rows.begin() + static_cast<std::ptrdiff_t>(r * words),
                words, prog->dim_rows_.begin() +
                           static_cast<std::ptrdiff_t>(r * prog->row_stride_));
  }
  prog->valid_.assign(prog->row_stride_, 0);
  for (std::size_t w = 0; w < prog->words_; ++w) {
    prog->valid_[w] = w + 1 == prog->words_ ? valid_tail : ~std::uint64_t{0};
  }
  prog->dim_used_.assign(prog->dims_, 0);
  for (std::size_t i = 0; i < prog->dims_; ++i) {
    for (std::size_t c = 0; c < prog->class_count_; ++c) {
      const std::uint64_t* row =
          &prog->dim_rows_[(i * prog->class_count_ + c) * prog->row_stride_];
      for (std::size_t w = 0; w < prog->words_; ++w) {
        if (row[w] != 0) {
          prog->dim_used_[i] |= static_cast<std::uint16_t>(1u << c);
          break;
        }
      }
    }
  }
  // The closed-form frame path's lane-major table, one 64x64 block
  // transpose per (class, 64 dimensions, 64 lanes): block row r is the
  // lane word of dimension 64j + r, so transposed row b is lane 64w + b's
  // class-c bits over those dimensions, row word k = c * dim_words_ + j.
  // Two-class programs transpose class 0 only.
  const std::size_t row_words = prog->lane_row_words();
  prog->lane_bits_.assign(prog->match_blocks() * row_words * kMatchBlockLanes,
                          0);
  std::uint64_t block[64];
  for (std::uint64_t c = 0; c * prog->dim_words_ < row_words; ++c) {
    for (std::uint64_t j = 0; j < prog->dim_words_; ++j) {
      const std::size_t k = c * prog->dim_words_ + j;
      for (std::uint64_t w = 0; w < words; ++w) {
        for (std::uint64_t r = 0; r < 64; ++r) {
          const std::uint64_t dim = j * 64 + r;
          block[r] = dim < s.dims
                         ? s.dim_rows[(dim * s.class_count + c) * words + w]
                         : 0;
        }
        transpose64(block);
        for (std::uint64_t b = 0; b < 64 && w * 64 + b < s.lanes; ++b) {
          const std::size_t lane = w * 64 + b;
          prog->lane_bits_[(lane / kMatchBlockLanes * row_words + k) *
                               kMatchBlockLanes +
                           lane % kMatchBlockLanes] = block[b];
        }
      }
    }
  }
  prog->report_elem_ = s.report_elem;
  prog->report_code_ = s.report_code;

  // Counter planes: biased so that count >= dims <=> a bit at plane >= P.
  const auto p = static_cast<std::uint32_t>(std::bit_width(s.dims - 1));
  prog->cond_plane_ = p;
  prog->planes_ = p + 2;
  prog->bias_ = (std::uint64_t{1} << p) - s.dims;
  prog->class_bytes_.resize(2 * 256);
  for (std::size_t sym = 0; sym < 256; ++sym) {
    prog->class_bytes_[sym] = static_cast<std::uint8_t>(s.sym_classes[sym]);
    prog->class_bytes_[256 + sym] =
        static_cast<std::uint8_t>(s.sym_classes[sym] >> 8);
  }
  return prog;
}

BatchProgramState BatchProgram::state() const {
  BatchProgramState s;
  s.family = family_;
  s.lanes = macro_count_;
  s.dims = dims_;
  s.levels = levels_;
  s.class_count = class_count_;
  s.sof = sof_;
  s.eof = eof_;
  s.sym_classes = sym_classes_;
  // Un-pad back to the canonical words_-sized rows: the serialized image
  // (and therefore the artifact format) is independent of the in-memory
  // stride and of any lane width.
  s.dim_rows.assign(dims_ * class_count_ * words_, 0);
  for (std::size_t r = 0; r < dims_ * class_count_; ++r) {
    std::copy_n(dim_rows_.begin() + static_cast<std::ptrdiff_t>(
                                        r * row_stride_),
                words_,
                s.dim_rows.begin() + static_cast<std::ptrdiff_t>(r * words_));
  }
  s.report_elem = report_elem_;
  s.report_code = report_code_;
  return s;
}

BatchSimulator::BatchSimulator(std::shared_ptr<const BatchProgram> program,
                               LaneWidth lane_width)
    : kernels_(resolve_lane_kernels(lane_width)),
      match_counts_(&resolve_match_counts()) {
  bind(std::move(program));
}

void BatchSimulator::bind(std::shared_ptr<const BatchProgram> program) {
  if (program == nullptr) {
    throw std::invalid_argument(
        "BatchSimulator: null program (try_compile declined?)");
  }
  program_ = std::move(program);
  const BatchProgram& p = *program_;
  closed_form_frames_ = 0;
  report_count_ = 0;
  frame_cycles_ = 2 * p.dims_ + p.levels_ + 3;
  // Words swept per cycle: the canonical count rounded up to this width's
  // block. The program pads its rows and valid masks to kLaneBlockWords
  // (>= any block), so the sweep never reads past storage, the pad words
  // are zero, and the 64-bit path does exactly the work it always did.
  const std::size_t block = kernels_.block_words();
  eff_words_ = (p.words_ + block - 1) / block * block;
  chain_.assign(p.dim_words_, 0);
  match_ring_.assign(p.levels_ * eff_words_, 0);
  // Every live lane's counter holds the bias after a reset.
  reset_planes_.assign(p.planes_ * eff_words_, 0);
  for (std::uint32_t q = 0; q < p.planes_; ++q) {
    if ((p.bias_ >> q) & 1) {
      std::copy_n(p.valid_.begin(), eff_words_,
                  reset_planes_.begin() +
                      static_cast<std::ptrdiff_t>(q * eff_words_));
    }
  }
  cond_prev_.assign(eff_words_, 0);
  pulse_.assign(eff_words_, 0);
  counter_out_.assign(eff_words_, 0);
  match_scratch_.assign(eff_words_, 0);
  query_bits_.assign(std::max<std::size_t>(p.class_count_, 2) * p.dim_words_,
                     0);
  lane_counts_.assign(p.match_blocks() * kMatchBlockLanes, 0);
  group_max_.assign(p.match_blocks(), 0);
  candidate_lanes_.assign((p.match_blocks() + 1) * kMatchBlockLanes, 0);
  count_cursor_.assign(p.dims_ + 1, 0);
  reset();
}

void BatchSimulator::reset() {
  cycle_ = 0;
  guard_prev_ = false;
  sort_prev_ = false;
  bridge_ = 0;
  ring_pos_ = 0;
  std::fill(chain_.begin(), chain_.end(), 0);
  std::fill(match_ring_.begin(), match_ring_.end(), 0);
  std::fill(cond_prev_.begin(), cond_prev_.end(), 0);
  std::fill(pulse_.begin(), pulse_.end(), 0);
  std::fill(counter_out_.begin(), counter_out_.end(), 0);
  planes_ = reset_planes_;
  reports_.clear();
  known_quiescent_ = true;
}

void BatchSimulator::step(std::uint8_t symbol) {
  const BatchProgram& p = *program_;
  const std::size_t words = p.words_;
  ++cycle_;
  known_quiescent_ = false;

  // 1. Report states: enabled by the counter outputs of the previous cycle
  //    and matching every symbol. Ascending lane order matches the
  //    reference simulator's counter-slot propagation order.
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = counter_out_[w];
    report_count_ += static_cast<std::uint64_t>(std::popcount(bits));
    while (bits != 0) {
      const std::size_t m = w * 64 + static_cast<std::size_t>(
                                          std::countr_zero(bits));
      bits &= bits - 1;
      reports_.push_back({cycle_, p.report_elem_[m], p.report_code_[m]});
    }
  }
  // 2. Counter outputs THIS cycle = the pulses staged at the end of the
  //    previous cycle (pulse mode: one cycle, then gone).
  counter_out_.swap(pulse_);

  // 3. Scalar (lane-uniform) state: guard, backbone wavefronts, bridge,
  //    sort, eof. The backbone doubles as the match-enable mask: dim i's
  //    matching states share their predecessor with chain state i.
  const bool guard_now = symbol == p.sof_;
  const std::uint64_t chain_top =
      (chain_[p.dim_words_ - 1] >> ((p.dims_ - 1) & 63)) & 1;
  std::uint64_t carry = guard_prev_ ? 1 : 0;
  for (std::size_t w = 0; w < p.dim_words_; ++w) {
    const std::uint64_t next_carry = chain_[w] >> 63;
    chain_[w] = (chain_[w] << 1) | carry;
    carry = next_carry;
  }
  chain_[p.dim_words_ - 1] &= p.chain_tail_;
  guard_prev_ = guard_now;

  const bool bridge_out = (bridge_ >> (p.levels_ - 1)) & 1;
  const bool sort_now = symbol != p.eof_ && (bridge_out || sort_prev_);
  const bool eof_now = symbol == p.eof_ && sort_prev_;
  bridge_ = ((bridge_ << 1) | chain_top) &
            ((std::uint64_t{1} << p.levels_) - 1);

  // 4. Packed match word: OR the lane-mask rows of every (enabled
  //    dimension, accepted class) pair. The rows of one dimension
  //    partition the live lanes, so no complement or tail masking is
  //    needed; usually exactly one dimension (the wavefront) is enabled.
  //    Rows live at stride row_stride_ and are zero-padded, so the kernel
  //    sweeps eff_words_ whole blocks.
  std::fill(match_scratch_.begin(), match_scratch_.end(), 0);
  const std::uint16_t accept = p.sym_classes_[symbol];
  if (accept != 0) {
    for (std::size_t w = 0; w < p.dim_words_; ++w) {
      std::uint64_t bits = chain_[w];
      while (bits != 0) {
        const std::size_t dim = w * 64 + static_cast<std::size_t>(
                                             std::countr_zero(bits));
        bits &= bits - 1;
        std::uint16_t hit = accept & p.dim_used_[dim];
        const std::uint64_t* rows =
            &p.dim_rows_[dim * p.class_count_ * p.row_stride_];
        while (hit != 0) {
          const auto c = static_cast<std::size_t>(std::countr_zero(hit));
          hit &= static_cast<std::uint16_t>(hit - 1);
          kernels_.or_rows(match_scratch_.data(), rows + c * p.row_stride_,
                           eff_words_);
        }
      }
    }
  }

  // 5. Counter updates. The collector tree delays the ORed match word by L
  //    cycles (ring buffer); the sort/eof states add uniform enable/reset.
  //    Counts are bit-sliced: ripple-carry add of the packed increment mask,
  //    saturating adds past the top plane (only >= threshold is observable).
  //    The kernel executes the whole dataflow one lane-word block at a
  //    time (see lane_kernels_impl.hpp); padding lanes have valid = 0, so
  //    they never increment, reset or pulse.
  LaneCounterCtx ctx;
  ctx.ring = &match_ring_[ring_pos_ * eff_words_];
  ctx.scratch = match_scratch_.data();
  ctx.planes = planes_.data();
  ctx.cond_prev = cond_prev_.data();
  ctx.pulse = pulse_.data();
  ctx.valid = p.valid_.data();
  ctx.words = eff_words_;
  ctx.plane_count = p.planes_;
  ctx.cond_plane = p.cond_plane_;
  ctx.bias = p.bias_;
  ctx.sort_now = sort_now;
  ctx.eof_now = eof_now;
  kernels_.counter_update(ctx);
  ring_pos_ = (ring_pos_ + 1) % p.levels_;
  sort_prev_ = sort_now;
}

bool BatchSimulator::quiescent() const noexcept {
  // One branch-free OR over every word that must be zero.
  std::uint64_t any = bridge_ | static_cast<std::uint64_t>(guard_prev_) |
                      static_cast<std::uint64_t>(sort_prev_);
  for (const std::vector<std::uint64_t>* v :
       {&chain_, &match_ring_, &cond_prev_, &pulse_, &counter_out_}) {
    for (const std::uint64_t x : *v) {
      any |= x;
    }
  }
  return any == 0 && planes_ == reset_planes_;
}

bool BatchSimulator::try_closed_form_frame(std::span<const std::uint8_t> rest,
                                           std::size_t report_limit,
                                           std::uint32_t count_floor) {
  const BatchProgram& p = *program_;
  const std::size_t cpq = frame_cycles_;
  if (rest.size() < cpq || rest[0] != p.sof_ || rest[cpq - 1] != p.eof_) {
    return false;
  }
  // The front end checks the symbols between SOF and EOF for a stray SOF
  // or EOF and writes every class's query mask from the data symbols.
  const std::size_t dw = p.dim_words_;
  std::uint64_t* query = query_bits_.data();
  if (!match_counts_->front_end(rest.data() + 1, cpq - 2, p.dims_, p.sof_,
                                p.eof_, p.sym_classes_.data(),
                                p.class_bytes_.data(), query_bits_.size() / dw,
                                query) ||
      !(known_quiescent_ || quiescent())) {
    return false;
  }

  // From quiescence the SOF launches one wavefront: dimension i's matching
  // states are enabled at frame position 1 + i only, and the fill that
  // follows neither matches (the wavefront has left) nor resets (no EOF).
  // So lane l's count after the data is h = its matched dimensions, the
  // sort state then adds one per cycle, and the counter crosses d exactly
  // once: it reports at frame offset 2d+L+3-h.
  //
  // Two classes: a lane matches dimension i when its class-0 row bit r_i
  // equals the class-0 query bit q0_i and that symbol is in exactly one
  // class (e_i = q0_i ^ q1_i), or when both classes accept the symbol; a
  // symbol in neither matches no lane. So h = base - popcount((row ^ q0) &
  // e) with base = popcount(q0 | q1); class 1's query word becomes e.
  const std::size_t blocks = p.match_blocks();
  if (p.two_class()) {
    std::uint32_t base = 0;
    std::uint64_t* exact = query + dw;
    for (std::size_t k = 0; k < dw; ++k) {
      base += static_cast<std::uint32_t>(std::popcount(query[k] | exact[k]));
      exact[k] ^= query[k];
    }
    match_counts_->two_class(p.lane_bits_.data(), query, exact, base, dw,
                             p.macro_count_, lane_counts_.data(),
                             group_max_.data());
  } else {
    match_counts_->multi_class(p.lane_bits_.data(), query,
                               p.lane_row_words(), blocks, lane_counts_.data(),
                               group_max_.data());
  }

  // The block floor F: the count floor, raised under a limit k below the
  // entry count to the k-th largest group maximum. Each entry is the
  // maximum of its own set of lanes, the sets disjoint, so k distinct lanes
  // count at least that maximum, and the cut count h_min found below is at
  // least it; and every lane that is kept reaches F, so it is a candidate,
  // a lane with a count of at least F. The candidates are listed in lane
  // order, skipping the groups whose entries all fall below F, and only
  // they are histogrammed and emitted. A frame with F = 0 (no floor, and no
  // limit or one of at least the entry count) takes every live lane
  // instead.
  std::fill(count_cursor_.begin(), count_cursor_.end(), 0);
  const std::uint32_t* counts = lane_counts_.data();
  std::uint32_t* candidates = candidate_lanes_.data();
  std::uint32_t block_floor = count_floor;
  if (report_limit != 0 && report_limit < blocks) {
    block_floor = match_counts_->kth_floor(
        group_max_.data(), blocks, report_limit, count_floor,
        static_cast<std::uint32_t>(p.dims_));
  }
  const bool cut = block_floor != 0;
  std::size_t listed = 0;
  if (cut) {
    // Pad lanes (past the last live lane of a partial last block) count 0
    // and are never listed.
    listed = match_counts_->list_candidates(counts, group_max_.data(), blocks,
                                            block_floor, candidates);
    for (std::size_t j = 0; j < listed; ++j) {
      ++count_cursor_[counts[candidates[j]]];
    }
  } else {
    for (std::size_t l = 0; l < p.macro_count_; ++l) {
      ++count_cursor_[counts[l]];
    }
  }

  // Counting sort on h, descending (ascending report cycle), stable in lane
  // order (the within-cycle report order). Under a report limit the sort
  // stops at h_min, the count whose cycle holds the limit-th report, and
  // lanes below it are left out: the kept events are the full order's
  // prefix through that whole cycle. Below the block floor nothing was
  // histogrammed, so the sort ends there; if it ends before the limit,
  // h_min stays 0 and every candidate is kept.
  const std::size_t first = reports_.size();
  std::size_t at = first;
  std::uint32_t h_min = 0;
  for (std::size_t h = p.dims_ + 1; h-- > block_floor;) {
    const std::size_t lanes_at_h = count_cursor_[h];
    count_cursor_[h] = at;
    at += lanes_at_h;
    if (report_limit != 0 && at - first >= report_limit) {
      h_min = static_cast<std::uint32_t>(h);
      break;
    }
  }
  reports_.resize(at);
  // Events are written through local copies of the buffer pointers, which
  // no store can change, so the loops keep them in registers.
  ReportEvent* out = reports_.data();
  std::size_t* cursor = count_cursor_.data();
  const anml::ElementId* elem = p.report_elem_.data();
  const std::uint32_t* code = p.report_code_.data();
  const std::uint64_t frame_end = cycle_ + cpq;
  const auto emit = [&](std::size_t l) {
    const std::uint32_t h = counts[l];
    out[cursor[h]++] = {frame_end - h, elem[l], code[l]};
  };
  if (cut) {
    std::size_t kept = 0;  // the candidates at or above h_min, in place
    for (std::size_t j = 0; j < listed; ++j) {
      candidates[kept] = candidates[j];
      kept += static_cast<std::size_t>(counts[candidates[j]] >= h_min);
    }
    for (std::size_t j = 0; j < kept; ++j) {
      emit(candidates[j]);
    }
  } else {
    for (std::size_t l = 0; l < p.macro_count_; ++l) {
      if (counts[l] >= h_min) {
        emit(l);
      }
    }
  }
  report_count_ += p.macro_count_;
  cycle_ = frame_end;
  ring_pos_ = (ring_pos_ + cpq) % p.levels_;
  ++closed_form_frames_;
  known_quiescent_ = true;
  return true;
}

std::vector<ReportEvent> BatchSimulator::run(
    std::span<const std::uint8_t> stream, const util::RunControl& control,
    std::size_t report_limit, std::span<const std::uint32_t> count_floor) {
  reset();
  return run_continue(stream, control, report_limit, count_floor);
}

std::vector<ReportEvent> BatchSimulator::run_continue(
    std::span<const std::uint8_t> stream, const util::RunControl& control,
    std::size_t report_limit, std::span<const std::uint32_t> count_floor) {
  const std::size_t first_new = reports_.size();
  const std::uint64_t period = checkpoint_period(control, stream.size());
  std::uint64_t since = 0;
  for (std::size_t pos = 0; pos < stream.size();) {
    // A closed-form frame may end on a checkpoint but not span one.
    if (period - since >= frame_cycles_ &&
        try_closed_form_frame(stream.subspan(pos), report_limit,
                              floor_at(count_floor, pos, frame_cycles_))) {
      pos += frame_cycles_;
      since += frame_cycles_;
    } else {
      step(stream[pos++]);
      ++since;
    }
    if (since >= period) {
      since = 0;
      control.checkpoint();
      util::FaultInjector::check(util::kFaultBatchFrame, control.fault_key);
    }
  }
  return {reports_.begin() + static_cast<std::ptrdiff_t>(first_new),
          reports_.end()};
}

}  // namespace apss::apsim
