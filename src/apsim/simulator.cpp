#include "apsim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/fault_injection.hpp"

namespace apss::apsim {

using anml::CounterPort;
using anml::Element;
using anml::ElementId;
using anml::ElementKind;

void rebase_events(std::vector<ReportEvent>& events,
                   std::uint64_t base_cycle) noexcept {
  for (ReportEvent& event : events) {
    event.cycle += base_cycle;
  }
}

Simulator::Simulator(const anml::AutomataNetwork& network, SimOptions options)
    : network_(network), options_(options) {
  const auto problems = network.validate(options.allow_dynamic_threshold);
  if (!problems.empty()) {
    std::ostringstream oss;
    oss << "Simulator: invalid network:";
    for (const auto& p : problems) {
      oss << "\n  - " << p;
    }
    throw std::invalid_argument(oss.str());
  }

  const std::size_t n = network.size();
  counter_index_.assign(n, ~std::uint32_t{0});

  for (ElementId id = 0; id < n; ++id) {
    const Element& e = network.element(id);
    switch (e.kind) {
      case ElementKind::kSte:
        if (e.start == anml::StartKind::kAllInput) {
          start_all_.push_back(id);
        } else if (e.start == anml::StartKind::kStartOfData) {
          start_sod_.push_back(id);
        }
        break;
      case ElementKind::kCounter: {
        counter_index_[id] = static_cast<std::uint32_t>(counters_.size());
        CounterState c;
        c.threshold = e.threshold;
        c.mode = e.mode;
        counters_.push_back(c);
        counter_elements_.push_back(id);
        break;
      }
      case ElementKind::kBoolean:
        break;
    }
  }

  // CSR out-adjacency (kThreshold edges are resolved separately below).
  {
    std::vector<std::uint32_t> counts(n + 1, 0);
    for (const anml::Edge& e : network.edges()) {
      if (e.port != CounterPort::kThreshold) {
        ++counts[e.from + 1];
      }
    }
    std::partial_sum(counts.begin(), counts.end(), counts.begin());
    out_offset_ = counts;
    out_edges_.resize(out_offset_.back());
    std::vector<std::uint32_t> cursor(out_offset_.begin(),
                                      out_offset_.end() - 1);
    for (const anml::Edge& e : network.edges()) {
      if (e.port != CounterPort::kThreshold) {
        out_edges_[cursor[e.from]++] = {e.to, e.port};
      }
    }
  }

  // Dynamic-threshold wiring.
  for (const anml::Edge& e : network.edges()) {
    if (e.port == CounterPort::kThreshold) {
      const std::uint32_t dst = counter_index_[e.to];
      const std::uint32_t src = counter_index_[e.from];
      counters_[dst].dynamic_source = static_cast<std::int32_t>(src);
    }
  }

  // Boolean in-adjacency + topological order (validation ruled out cycles).
  {
    std::vector<ElementId> booleans;
    for (ElementId id = 0; id < n; ++id) {
      if (network.element(id).kind == ElementKind::kBoolean) {
        booleans.push_back(id);
      }
    }
    std::vector<std::uint32_t> counts(n + 1, 0);
    for (const anml::Edge& e : network.edges()) {
      if (network.element(e.to).kind == ElementKind::kBoolean) {
        ++counts[e.to + 1];
      }
    }
    std::partial_sum(counts.begin(), counts.end(), counts.begin());
    bool_in_offset_ = counts;
    bool_in_edges_.resize(bool_in_offset_.back());
    std::vector<std::uint32_t> cursor(bool_in_offset_.begin(),
                                      bool_in_offset_.end() - 1);
    for (const anml::Edge& e : network.edges()) {
      if (network.element(e.to).kind == ElementKind::kBoolean) {
        bool_in_edges_[cursor[e.to]++] = e.from;
      }
    }

    // Kahn's algorithm restricted to boolean->boolean edges.
    std::vector<std::uint32_t> indegree(n, 0);
    for (const anml::Edge& e : network.edges()) {
      if (network.element(e.from).kind == ElementKind::kBoolean &&
          network.element(e.to).kind == ElementKind::kBoolean) {
        ++indegree[e.to];
      }
    }
    std::vector<ElementId> queue;
    for (const ElementId id : booleans) {
      if (indegree[id] == 0) {
        queue.push_back(id);
      }
    }
    while (!queue.empty()) {
      const ElementId u = queue.back();
      queue.pop_back();
      boolean_topo_.push_back(u);
      for (std::uint32_t i = out_offset_[u]; i < out_offset_[u + 1]; ++i) {
        const ElementId v = out_edges_[i].to;
        if (network.element(v).kind == ElementKind::kBoolean &&
            --indegree[v] == 0) {
          queue.push_back(v);
        }
      }
    }
  }

  outputs_.assign(n, 0);
  enabled_.assign(n, 0);
  enabled_next_.assign(n, 0);
  reset();
}

void Simulator::reset() {
  cycle_ = 0;
  for (const ElementId id : active_list_) {
    outputs_[id] = 0;
  }
  active_list_.clear();
  for (const ElementId id : enabled_list_) {
    enabled_[id] = 0;
  }
  enabled_list_.clear();
  for (const ElementId id : enabled_next_list_) {
    enabled_next_[id] = 0;
  }
  enabled_next_list_.clear();
  for (CounterState& c : counters_) {
    c.count = 0;
    c.dynamic_source_count = 0;
    c.condition_prev = false;
    c.latched = false;
    c.pending_increment = 0;
    c.pending_reset = false;
    c.output_now = false;
    c.output_next = false;
  }
  reports_.clear();
}

std::uint64_t Simulator::counter_value(ElementId id) const {
  const std::uint32_t slot = counter_index_.at(id);
  if (slot == ~std::uint32_t{0}) {
    throw std::invalid_argument("counter_value: element is not a counter");
  }
  return counters_[slot].count;
}

void Simulator::propagate_output(ElementId id) {
  for (std::uint32_t i = out_offset_[id]; i < out_offset_[id + 1]; ++i) {
    const OutEdge& edge = out_edges_[i];
    const std::uint32_t cslot = counter_index_[edge.to];
    if (cslot != ~std::uint32_t{0}) {
      CounterState& c = counters_[cslot];
      if (edge.port == CounterPort::kReset) {
        c.pending_reset = true;
      } else {
        ++c.pending_increment;
      }
      continue;
    }
    if (network_.element(edge.to).kind == ElementKind::kSte) {
      if (!enabled_next_[edge.to]) {
        enabled_next_[edge.to] = 1;
        enabled_next_list_.push_back(edge.to);
      }
    }
    // Boolean destinations read outputs_ combinationally; nothing to stage.
  }
}

void Simulator::evaluate_booleans() {
  for (const ElementId id : boolean_topo_) {
    const Element& e = network_.element(id);
    std::uint32_t ones = 0;
    std::uint32_t inputs = 0;
    for (std::uint32_t i = bool_in_offset_[id]; i < bool_in_offset_[id + 1];
         ++i) {
      ++inputs;
      ones += outputs_[bool_in_edges_[i]];
    }
    bool value = false;
    switch (e.op) {
      case anml::BooleanOp::kAnd: value = inputs > 0 && ones == inputs; break;
      case anml::BooleanOp::kOr: value = ones > 0; break;
      case anml::BooleanOp::kNot: value = ones == 0; break;
      case anml::BooleanOp::kNand: value = !(inputs > 0 && ones == inputs); break;
      case anml::BooleanOp::kNor: value = ones == 0; break;
      case anml::BooleanOp::kXor: value = (ones % 2) == 1; break;
      case anml::BooleanOp::kXnor: value = (ones % 2) == 0; break;
    }
    if (value && !outputs_[id]) {
      outputs_[id] = 1;
      active_list_.push_back(id);
    }
  }
}

void Simulator::finalize_counters() {
  // Snapshot counts so dynamic thresholds see simultaneous-update semantics.
  for (CounterState& c : counters_) {
    if (c.dynamic_source >= 0) {
      c.dynamic_source_count = counters_[c.dynamic_source].count;
    }
  }
  for (CounterState& c : counters_) {
    std::uint64_t new_count = c.count;
    if (c.pending_reset) {
      new_count = 0;
      c.latched = false;
    } else if (c.pending_increment > 0) {
      new_count += std::min(c.pending_increment, options_.max_counter_increment);
    }
    const std::uint64_t threshold =
        c.dynamic_source >= 0 ? c.dynamic_source_count + 1 : c.threshold;
    const bool condition = new_count >= threshold;
    if (condition && !c.condition_prev) {
      if (c.mode == anml::CounterMode::kPulse) {
        c.output_next = true;
      } else {
        c.latched = true;
      }
    }
    c.condition_prev = condition;
    c.count = new_count;
    c.pending_increment = 0;
    c.pending_reset = false;
  }
}

void Simulator::step(std::uint8_t symbol) {
  ++cycle_;

  // Age out last cycle's outputs and enables.
  for (const ElementId id : active_list_) {
    outputs_[id] = 0;
  }
  active_list_.clear();
  for (const ElementId id : enabled_list_) {
    enabled_[id] = 0;
  }
  enabled_list_.clear();
  std::swap(enabled_, enabled_next_);
  std::swap(enabled_list_, enabled_next_list_);

  const auto activate = [this](ElementId id) {
    if (!outputs_[id]) {
      outputs_[id] = 1;
      active_list_.push_back(id);
    }
  };

  // 1. Counter outputs staged at the end of the previous cycle.
  for (std::size_t slot = 0; slot < counters_.size(); ++slot) {
    CounterState& c = counters_[slot];
    c.output_now = c.output_next || c.latched;
    c.output_next = false;
    if (c.output_now) {
      activate(counter_elements_[slot]);
    }
  }

  // 2. STE evaluation: enabled states plus start states.
  for (const ElementId id : enabled_list_) {
    if (network_.element(id).symbols.test(symbol)) {
      activate(id);
    }
  }
  for (const ElementId id : start_all_) {
    if (network_.element(id).symbols.test(symbol)) {
      activate(id);
    }
  }
  if (cycle_ == 1) {
    for (const ElementId id : start_sod_) {
      if (network_.element(id).symbols.test(symbol)) {
        activate(id);
      }
    }
  }

  // 3. Combinational boolean evaluation.
  evaluate_booleans();

  // 4. Reports and signal propagation.
  for (const ElementId id : active_list_) {
    const Element& e = network_.element(id);
    if (e.reporting) {
      reports_.push_back({cycle_, id, e.report_code});
    }
    propagate_output(id);
  }

  // 5. End-of-cycle counter updates.
  finalize_counters();

  if (trace_ != nullptr) {
    trace_->on_cycle(cycle_, symbol, active_list_, *this);
  }
}

std::uint64_t checkpoint_period(const util::RunControl& control,
                                std::size_t symbols) noexcept {
  if (!control.engaged() && !util::FaultInjector::armed()) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return control.checkpoint_period > 0 ? control.checkpoint_period : symbols;
}

std::vector<ReportEvent> Simulator::run(std::span<const std::uint8_t> stream,
                                        const util::RunControl& control) {
  reset();
  return run_continue(stream, control);
}

std::vector<ReportEvent> Simulator::run_continue(
    std::span<const std::uint8_t> stream, const util::RunControl& control) {
  const std::size_t first_new = reports_.size();
  const std::uint64_t period = checkpoint_period(control, stream.size());
  std::uint64_t since = 0;
  for (const std::uint8_t symbol : stream) {
    step(symbol);
    if (++since >= period) {
      since = 0;
      control.checkpoint();
      util::FaultInjector::check(util::kFaultSimFrame, control.fault_key);
    }
  }
  return {reports_.begin() + static_cast<std::ptrdiff_t>(first_new),
          reports_.end()};
}

}  // namespace apss::apsim
