#pragma once
// AutomataNetwork: a graph of STEs / counters / booleans plus connections.
//
// This is the in-memory equivalent of an ANML file: the kNN macro builders
// (src/core) produce networks, the simulator (src/apsim) executes them, and
// the placement engine maps them onto blocks/half-cores.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "anml/element.hpp"

namespace apss::anml {

/// Aggregate statistics used by resource accounting and benches.
struct NetworkStats {
  std::size_t ste_count = 0;
  std::size_t counter_count = 0;
  std::size_t boolean_count = 0;
  std::size_t reporting_count = 0;
  std::size_t start_count = 0;
  std::size_t edge_count = 0;
  std::size_t max_fan_in = 0;
  std::size_t max_fan_out = 0;
};

class AutomataNetwork {
 public:
  AutomataNetwork() = default;
  explicit AutomataNetwork(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  // --- Construction -------------------------------------------------------

  /// Adds an STE matching `symbols`. Returns its id.
  ElementId add_ste(SymbolSet symbols, StartKind start = StartKind::kNone,
                    std::string name = {});

  /// Adds a reporting STE; `report_code` identifies it in report events.
  ElementId add_reporting_ste(SymbolSet symbols, std::uint32_t report_code,
                              std::string name = {});

  ElementId add_counter(std::uint32_t threshold,
                        CounterMode mode = CounterMode::kPulse,
                        std::string name = {});

  ElementId add_boolean(BooleanOp op, std::string name = {});

  /// Connects `from`'s output to `to`'s input `port`.
  void connect(ElementId from, ElementId to,
               CounterPort port = CounterPort::kCountEnable);

  /// Marks an existing element as reporting.
  void set_reporting(ElementId id, std::uint32_t report_code);

  /// Appends all elements/edges of `other`; returns the id offset that was
  /// added to `other`'s element ids.
  ElementId merge(const AutomataNetwork& other);

  // --- Inspection ---------------------------------------------------------

  std::size_t size() const noexcept { return elements_.size(); }
  const Element& element(ElementId id) const { return elements_.at(id); }
  Element& element(ElementId id) { return elements_.at(id); }
  const std::vector<Element>& elements() const noexcept { return elements_; }
  const std::vector<Edge>& edges() const noexcept { return edges_; }

  std::size_t fan_in(ElementId id) const;
  std::size_t fan_out(ElementId id) const;

  NetworkStats stats() const;

  /// Weakly-connected component label per element; returns the number of
  /// components. Placement treats each component as one indivisible NFA.
  std::size_t components(std::vector<std::uint32_t>& labels) const;

  /// Validates structural rules. Returns human-readable problems (empty =
  /// valid): nonempty STE classes, counter thresholds >= 1, port legality,
  /// boolean fan-in arity, no combinational cycles through booleans, and
  /// (unless dynamic thresholds are allowed) no kThreshold edges.
  std::vector<std::string> validate(bool allow_dynamic_threshold = false) const;

 private:
  std::string name_;
  std::vector<Element> elements_;
  std::vector<Edge> edges_;
};

}  // namespace apss::anml
