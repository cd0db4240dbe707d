#pragma once
// Cycle-accurate execution of an AutomataNetwork.
//
// Semantics implemented here (validated against the paper's Fig. 3/4 traces
// and the AP architecture paper, Dlugosch et al. TPDS'14):
//
//  * Cycle t (1-based) consumes one 8-bit symbol.
//  * An STE is ACTIVE at t iff the symbol matches its class AND it is
//    enabled: all-input start STEs are always enabled, start-of-data STEs
//    are enabled at t=1 only, and any STE is enabled when one of its
//    predecessors produced an output at t-1.
//  * A counter samples its count-enable / reset inputs from element outputs
//    DURING cycle t and updates its internal count at END of cycle t
//    (reset wins over increment). Stock hardware increments by at most one
//    per cycle regardless of how many enable inputs fired (the paper's
//    Sec. VII-A extension raises this cap). When the count condition
//    (count >= threshold) becomes true at the end of t, a pulse-mode
//    counter's output is active during cycle t+1 only; a latch-mode
//    counter's output stays active from t+1 until reset.
//  * Boolean elements are combinational: their output at t is a function of
//    their inputs' outputs at t (validation rejects combinational cycles).
//  * A reporting element generates a ReportEvent in every cycle its output
//    is active.
//  * Dynamic-threshold (extension): an edge into a counter's kThreshold
//    port makes its effective threshold = (source counter's count at the
//    end of the previous cycle) + 1, i.e. the counter fires when its count
//    EXCEEDS the source count — the "if (A > B)" construct of Fig. 8.
//    Pulses fire on each rising edge of the condition.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "anml/network.hpp"
#include "apsim/device.hpp"
#include "util/cancellation.hpp"

namespace apss::apsim {

/// One reporting-state activation: what the AP conveys to the host per
/// match. Events are emitted in cycle order; within a cycle, counter-driven
/// reports follow counter creation order (see docs/SIMULATOR_SEMANTICS.md).
struct ReportEvent {
  std::uint64_t cycle = 0;  ///< 1-based symbol offset of the activation
  anml::ElementId element = anml::kInvalidElement;  ///< the reporting STE
  std::uint32_t report_code = 0;  ///< user payload (dataset vector id)

  bool operator==(const ReportEvent&) const = default;
};

/// Shifts every event's cycle by `base_cycle`, in place. A shard that
/// simulated frames starting `base_cycle` symbols into a configuration's
/// full query stream rebases its buffer with this; rebased shard buffers
/// concatenated in frame order are bit-identical to one continuous run
/// (frames reset all automata state, so shard boundaries are invisible).
void rebase_events(std::vector<ReportEvent>& events,
                   std::uint64_t base_cycle) noexcept;

/// Feature gates for a simulation run, derived from DeviceFeatures. The
/// defaults model stock Gen-1 hardware.
struct SimOptions {
  /// Counter increment cap per cycle (stock AP: 1).
  std::uint32_t max_counter_increment = 1;
  /// Allow kThreshold edges (Sec. VII-B extension).
  bool allow_dynamic_threshold = false;

  static SimOptions from(const DeviceFeatures& f) {
    return {f.max_counter_increment, f.dynamic_threshold};
  }
};

/// Per-cycle observer for traces (the quickstart example renders Fig. 3).
struct TraceSink {
  virtual ~TraceSink() = default;
  /// Called after each cycle with the ids of output-active elements.
  virtual void on_cycle(std::uint64_t cycle, std::uint8_t symbol,
                        std::span<const anml::ElementId> active,
                        const class Simulator& sim) = 0;
};

/// Symbols between the checkpoints of a run of `symbols` symbols under
/// `control`: its checkpoint_period, or the whole run when that is 0; or
/// never (the largest count) when the control is idle and no fault site is
/// armed, since no checkpoint could then have an effect. Both simulators'
/// run_continue count checkpoints by this.
std::uint64_t checkpoint_period(const util::RunControl& control,
                                std::size_t symbols) noexcept;

class Simulator {
 public:
  /// Compiles `network` for execution. The network must outlive the
  /// simulator. Throws std::invalid_argument if validation fails.
  explicit Simulator(const anml::AutomataNetwork& network,
                     SimOptions options = {});

  /// Returns to the pre-stream state (cycle 0, all counts zero).
  void reset();

  /// Consumes one symbol; advances to the next cycle.
  void step(std::uint8_t symbol);

  /// reset() + run_continue(stream, control).
  std::vector<ReportEvent> run(std::span<const std::uint8_t> stream,
                               const util::RunControl& control = {});

  /// Runs WITHOUT resetting first — streams are concatenable (back-to-back
  /// queries), matching how a host drives the real device — and returns
  /// the reports this call emitted. Every `control.checkpoint_period`
  /// symbols (the engines pass one query frame; 0: once, after the whole
  /// stream) the run polls the deadline/cancellation token — throwing
  /// util::DeadlineExceeded / util::OperationCancelled mid-stream — and
  /// fires the "sim.frame" fault site (util/fault_injection.hpp). An idle
  /// control with no fault site armed never checkpoints.
  std::vector<ReportEvent> run_continue(std::span<const std::uint8_t> stream,
                                        const util::RunControl& control = {});

  // --- Introspection (used by traces and tests) ---------------------------
  std::uint64_t cycle() const noexcept { return cycle_; }
  std::uint64_t counter_value(anml::ElementId id) const;
  const std::vector<ReportEvent>& reports() const noexcept { return reports_; }

  void set_trace(TraceSink* sink) noexcept { trace_ = sink; }

 private:
  struct CounterState {
    std::uint64_t count = 0;
    std::uint32_t threshold = 1;
    anml::CounterMode mode = anml::CounterMode::kPulse;
    std::int32_t dynamic_source = -1;  ///< counter index driving threshold
    std::uint64_t dynamic_source_count = 0;  ///< sampled at end of prev cycle
    bool condition_prev = false;  ///< count condition at end of prev cycle
    bool latched = false;
    std::uint32_t pending_increment = 0;
    bool pending_reset = false;
    bool output_now = false;   ///< output during the current cycle
    bool output_next = false;  ///< staged for the next cycle
  };

  void evaluate_booleans();
  void propagate_output(anml::ElementId id);
  void finalize_counters();

  const anml::AutomataNetwork& network_;
  SimOptions options_;

  // Compiled structure.
  std::vector<anml::ElementId> start_all_;  ///< all-input start STEs
  std::vector<anml::ElementId> start_sod_;  ///< start-of-data start STEs
  std::vector<std::uint32_t> counter_index_;  ///< element -> counter slot
  std::vector<anml::ElementId> counter_elements_;
  std::vector<anml::ElementId> boolean_topo_;  ///< booleans in topo order
  // CSR out-adjacency split by destination port.
  struct OutEdge {
    anml::ElementId to;
    anml::CounterPort port;
  };
  std::vector<std::uint32_t> out_offset_;
  std::vector<OutEdge> out_edges_;
  // CSR in-adjacency for boolean evaluation.
  std::vector<std::uint32_t> bool_in_offset_;
  std::vector<anml::ElementId> bool_in_edges_;

  // Dynamic state.
  std::uint64_t cycle_ = 0;
  std::vector<std::uint8_t> outputs_;        ///< element output this cycle
  std::vector<std::uint8_t> enabled_;        ///< STE enables for this cycle
  std::vector<std::uint8_t> enabled_next_;   ///< being built for next cycle
  std::vector<anml::ElementId> active_list_;       ///< outputs_ set bits
  std::vector<anml::ElementId> enabled_list_;      ///< enabled_ set bits
  std::vector<anml::ElementId> enabled_next_list_;
  std::vector<CounterState> counters_;
  std::vector<ReportEvent> reports_;
  TraceSink* trace_ = nullptr;
};

}  // namespace apss::apsim
