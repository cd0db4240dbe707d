#pragma once
// Bit-parallel batch execution of homogeneous macro configurations (the
// Simultaneous-FA idea applied to the paper's Sec. III design): because
// every macro in a board configuration is structurally identical, the
// per-macro state fits ONE BIT per element slot, and a whole configuration
// advances with word-wide AND/OR/shift operations — 64 macros per machine
// word per operation.
//
// Three macro shapes compile (docs/OPTIMIZATIONS.md details each):
//
//  * the plain Hamming/sorting macro family (Figs. 2a/2b, one macro per
//    dataset vector — core::append_hamming_macro),
//  * the vector-packed shape (Fig. 5 / Sec. VI-A, several vectors overlaid
//    on a shared ladder — core::build_packed_network), and
//  * the stream-multiplexed shape (Fig. 6 / Sec. VI-B, per-bit-slice macro
//    replicas — core::build_multiplexed_network), which is the plain shape
//    with per-slice matching classes.
//
// One recognizer verifies all three (a plain or multiplexed macro is a
// packed group of one lane), and they reduce to the same compiled form,
// executed by one interpreter.
// A "lane" is one (counter, report) pair — a plain or multiplexed macro, or
// one packed vector within its group. What makes the execution exact (see
// docs/SIMULATOR_SEMANTICS.md for the contract):
//
//  * The "*" backbone, guard, bridge, sort and EOF states match classes that
//    do not depend on the encoded vector, so their activity is IDENTICAL
//    across lanes — a handful of scalar bits per cycle. (Packed groups share
//    these states physically; plain macros replicate them; either way the
//    activity is uniform.)
//  * Only the per-dimension matching states differ between lanes, and each
//    lane uses exactly one of at most kMaxBatchMatchClasses distinct symbol
//    classes per dimension (bit = 0 / bit = 1, per bit slice). A per-symbol
//    16-bit class-acceptance mask plus one packed lane mask per (dimension,
//    class) yields the packed match word in O(words) per enabled dimension.
//  * With the stock per-cycle counter-increment cap of 1, simultaneous
//    count-enable inputs OR together, so the collector reduction tree is
//    exactly an L-cycle delay line on the OR of the matching states: the
//    packed match word is pushed through a ring buffer of L word-vectors.
//    This holds per lane even when packed lanes share leaf states, because
//    every leaf-to-counter path in every lane's tree has length exactly L.
//  * The distance counters are bit-sliced: counts live in bit planes biased
//    by 2^P - threshold, so "count >= threshold" is a read of the top
//    planes, an increment is a ripple-carry add of a packed mask, and
//    counters that run past the representable range saturate (legal, since
//    only the >= threshold predicate and reset are observable here).
//
// The program compiler verifies all of this structurally and refuses
// anything else (counters with caps > 1, boolean gates, dynamic thresholds,
// foreign elements, irregular collector trees, lanes out of counter-id
// order...): callers fall back to the cycle-accurate apsim::Simulator,
// which stays the semantic reference. BatchSimulator emits bit-identical
// ReportEvent streams, including within-cycle ordering (ascending lane
// index == ascending counter element id, matching the reference
// simulator's counter-slot propagation order).

#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "anml/network.hpp"
#include "apsim/lane_word.hpp"
#include "apsim/macro_layout.hpp"
#include "apsim/simulator.hpp"

namespace apss::apsim {

/// Most distinct matching-state symbol classes a compiled configuration may
/// use. Two (bit = 0 / bit = 1) cover the plain and packed shapes; stream
/// multiplexing needs two per bit slice (up to 14); 16 leaves headroom
/// while keeping the per-symbol acceptance mask one 16-bit word.
inline constexpr std::size_t kMaxBatchMatchClasses = 16;

/// Which macro shape a BatchProgram was compiled from. Execution is
/// shape-neutral; the family feeds engine statistics and fallback
/// reporting (core::BackendCompileStats), never dispatch.
enum class MacroFamily : std::uint8_t {
  kHamming,      ///< plain Hamming/sorting macros (Figs. 2a/2b)
  kPacked,       ///< vector-packed groups (Fig. 5 / Sec. VI-A)
  kMultiplexed,  ///< per-bit-slice macro replicas (Fig. 6 / Sec. VI-B)
};

const char* to_string(MacroFamily family) noexcept;

/// The complete stored state of a compiled BatchProgram — the
/// field-for-field image the on-disk artifact codec (src/artifact)
/// serializes. Derived quantities (word counts, tail masks, counter plane
/// layout) are intentionally absent: BatchProgram::from_state recomputes
/// them and revalidates every structural invariant, so no decoded byte
/// stream can construct a program that try_compile could not have
/// produced shape-wise (docs/ARTIFACTS.md specifies the invariants).
struct BatchProgramState {
  MacroFamily family = MacroFamily::kHamming;
  std::uint64_t lanes = 0;   ///< macro_count()
  std::uint64_t dims = 0;
  std::uint64_t levels = 1;  ///< collector tree depth L
  std::uint64_t class_count = 0;
  std::uint8_t sof = 0;
  std::uint8_t eof = 0;
  /// Per-symbol classifier: bit c = match class c accepts the symbol.
  std::array<std::uint16_t, 256> sym_classes{};
  /// dims x class_count x ceil(lanes/64) packed lane-mask rows; the rows of
  /// one dimension partition the live lanes.
  std::vector<std::uint64_t> dim_rows;
  std::vector<anml::ElementId> report_elem;  ///< per lane
  std::vector<std::uint32_t> report_code;    ///< per lane

  bool operator==(const BatchProgramState&) const = default;
};

/// std::allocator on 64-byte (cache-line) boundaries.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{64});
  }
  bool operator==(const CacheLineAllocator&) const = default;
};

/// Immutable compiled form of one configuration: per-symbol class
/// acceptance mask, per-(dimension, class) lane masks, report identities,
/// counter plane layout. Shareable across threads; each worker wraps it in
/// its own BatchSimulator.
class BatchProgram {
 public:
  /// Verifies that (network, macros) is a supported homogeneous macro
  /// configuration under `options` — the plain Hamming/sorting shape or
  /// its multiplexed per-slice variant, as core::append_hamming_macro and
  /// core::build_multiplexed_network lay it out — and compiles it. Returns
  /// nullptr (and fills *reason when non-null) if any structural or
  /// feature requirement fails — callers then use the cycle-accurate
  /// Simulator. A pure function of its arguments, so independent
  /// configurations compile concurrently.
  /// Each macro is checked as a packed group of one lane, by the same
  /// recognizer as the packed overload: its collector tree must reach the
  /// counter in exactly collector_levels steps, collecting each dimension
  /// exactly once, and macros must appear in ascending counter-id order
  /// (the reference simulator's report order).
  static std::shared_ptr<const BatchProgram> try_compile(
      const anml::AutomataNetwork& network,
      std::span<const MacroLayout> macros, SimOptions options,
      std::string* reason = nullptr);

  /// Same contract for the vector-packed shape (core::append_packed_group's
  /// layouts): every group shares the guard/backbone/bridge/sort/EOF
  /// structure among its lanes, and every lane meets the plain overload's
  /// per-lane requirements.
  static std::shared_ptr<const BatchProgram> try_compile(
      const anml::AutomataNetwork& network,
      std::span<const PackedGroupLayout> groups, SimOptions options,
      std::string* reason = nullptr);

  /// Rebuilds a program from stored state (the artifact load path).
  /// Validates every invariant the compiler establishes — lane/dimension/
  /// class bounds, row-table geometry, the per-dimension class-partition
  /// property — and returns nullptr (filling *error when non-null) on any
  /// violation; a state that passes is indistinguishable from a freshly
  /// compiled program. try_compile funnels through this too, so the checks
  /// run on every compile, not only on load.
  static std::shared_ptr<const BatchProgram> from_state(
      const BatchProgramState& state, std::string* error = nullptr);

  /// The stored-state image of this program; from_state(state()) rebuilds
  /// an identical program (the round-trip property the artifact tests
  /// assert).
  BatchProgramState state() const;

  /// Lanes in the configuration (= macros for the plain/multiplexed
  /// shapes, = packed vectors summed over groups for the packed shape).
  std::size_t macro_count() const noexcept { return macro_count_; }
  /// Which macro shape this program was compiled from: kPacked for the
  /// packed overload; the plain overload reports kMultiplexed when the
  /// matching classes are slice-ternary pairs spanning more than one bit
  /// slice (the Fig. 6 encoding), else kHamming.
  MacroFamily family() const noexcept { return family_; }
  std::size_t dims() const noexcept { return dims_; }
  std::size_t collector_levels() const noexcept { return levels_; }
  /// 64-bit words per packed lane mask.
  std::size_t words() const noexcept { return words_; }
  /// Distinct matching-state symbol classes (<= kMaxBatchMatchClasses).
  std::size_t match_classes() const noexcept { return class_count_; }

 private:
  friend class BatchSimulator;
  BatchProgram() = default;

  MacroFamily family_ = MacroFamily::kHamming;
  std::size_t macro_count_ = 0;  ///< lanes
  std::size_t dims_ = 0;
  std::size_t levels_ = 1;
  std::size_t words_ = 0;  ///< canonical (unpadded) words per packed lane mask
  /// In-memory words per lane-mask row: words_ rounded up to kLaneBlockWords
  /// so every stepping width (64/256/512) divides the storage. The pad
  /// words are zero — no live lane, no class bit, valid mask 0 — which is
  /// what makes them semantically invisible to the kernels. The serialized
  /// state() stays canonical (words_-sized rows), so artifacts never see
  /// the padding.
  std::size_t row_stride_ = 0;
  std::size_t dim_words_ = 0;  ///< words per packed dimension (chain) mask
  std::size_t class_count_ = 0;   ///< distinct matching classes
  std::uint64_t valid_tail_ = 0;  ///< live bits of the last lane word
  std::uint64_t chain_tail_ = 0;  ///< live bits of the last chain word
  std::uint8_t sof_ = 0;          ///< guard symbol (single-symbol class)
  std::uint8_t eof_ = 0;          ///< reset symbol (single-symbol class)
  /// Per-symbol classifier: bit c = match class c accepts the symbol.
  std::array<std::uint16_t, 256> sym_classes_{};
  /// Per dimension: bitmask of the classes some lane uses there.
  std::vector<std::uint16_t> dim_used_;
  /// dims_ x class_count_ x row_stride_: bit l of row (i, c) = lane l's
  /// dim-i matching state uses class c. Rows of one dimension partition the
  /// live lanes (every lane has exactly one class per dimension); the
  /// row_stride_ - words_ pad words of every row are zero.
  std::vector<std::uint64_t> dim_rows_;
  /// row_stride_ words: bit l = lane l is live (zero in the pad words).
  std::vector<std::uint64_t> valid_;
  /// The lane-major transpose of dim_rows_, for the closed-form frame path:
  /// lane l's row holds lane_row_words() words, bit i%64 of word
  /// c * dim_words_ + i/64 = lane l's dim-i matching state uses class c.
  /// A two-class program keeps class 0's words only, since a lane's class-1
  /// bits are their complement over the live dimensions. Rows are
  /// interleaved in blocks of kMatchBlockLanes lanes (the LaneMatchCounts
  /// layout), pad lanes zero. Derived in from_state, never serialized.
  /// Cache-line aligned, so that no 512-bit load of the sweep splits a
  /// line whatever address the heap gives each program.
  std::vector<std::uint64_t, CacheLineAllocator<std::uint64_t>> lane_bits_;
  /// At most two match classes: the closed form counts with
  /// TwoClassMatchCounts over one class's rows.
  bool two_class() const noexcept { return class_count_ <= 2; }
  std::size_t lane_row_words() const noexcept {
    return (two_class() ? 1 : class_count_) * dim_words_;
  }
  std::size_t match_blocks() const noexcept {
    return (macro_count_ + kMatchBlockLanes - 1) / kMatchBlockLanes;
  }
  std::vector<anml::ElementId> report_elem_;  ///< per lane
  std::vector<std::uint32_t> report_code_;    ///< per lane
  std::uint32_t planes_ = 0;      ///< Q: bit planes per counter
  std::uint32_t cond_plane_ = 0;  ///< P: planes >= P <=> count >= threshold
  std::uint64_t bias_ = 0;        ///< 2^P - threshold, loaded on reset
  /// sym_classes_ bytewise, for the closed-form frame's front end
  /// (FrameFrontEnd): byte s of table t (t < 2, at 256 * t) = bits 8t to
  /// 8t + 7 of sym_classes_[s]. Derived in from_state, never serialized.
  /// Cache-line aligned, so that each 64-byte load of a table reads one
  /// line.
  std::vector<std::uint8_t, CacheLineAllocator<std::uint8_t>> class_bytes_;
};

/// Executes a BatchProgram with the same streaming interface and the same
/// ReportEvent output as the cycle-accurate Simulator. Cheap to construct
/// (dynamic state only); create one per worker thread, and bind() it to
/// each program that thread runs.
///
/// The width that stepped symbols advance at is a per-simulator choice;
/// the ReportEvent stream is bit-identical at every width, so a program —
/// or an artifact — runs unchanged at any width.
class BatchSimulator {
 public:
  /// Throws std::invalid_argument on a null program (i.e. a try_compile
  /// result that declined — callers must fall back, not construct).
  /// `lane_width` picks the stepping width.
  explicit BatchSimulator(std::shared_ptr<const BatchProgram> program,
                          LaneWidth lane_width = LaneWidth::k64);

  /// Switches to `program`: afterwards the simulator behaves exactly like
  /// BatchSimulator(program, lane_width()), its counters included, while
  /// its buffers keep their capacity. The constructor binds through this
  /// too. Throws std::invalid_argument on a null program.
  void bind(std::shared_ptr<const BatchProgram> program);

  /// Returns to the pre-stream state (cycle 0, all counts zero).
  void reset();

  /// Consumes one symbol; advances to the next cycle.
  void step(std::uint8_t symbol);

  /// reset() + run_continue(stream, control, report_limit, count_floor).
  std::vector<ReportEvent> run(std::span<const std::uint8_t> stream,
                               const util::RunControl& control = {},
                               std::size_t report_limit = 0,
                               std::span<const std::uint32_t> count_floor = {});

  /// Runs WITHOUT resetting first — streams are concatenable, matching
  /// Simulator::run_continue — and returns the reports this call emitted.
  ///
  /// Closed-form frames: when the simulator is quiescent (in the state
  /// reset() leaves, up to cycle() and reports()) and the next 2d+L+3
  /// symbols are SOF, then no SOF/EOF, then EOF, the whole frame's events
  /// follow from each lane's match count h: one report at frame offset
  /// 2d+L+3-h, lanes ascending within a cycle. Such frames are computed
  /// in one popcount sweep instead of being stepped, leave the simulator
  /// quiescent, and produce exactly the events and state stepping would.
  /// Every other symbol is stepped (docs/SIMULATOR_SEMANTICS.md).
  ///
  /// Checkpoints (same contract as Simulator::run_continue): every
  /// `control.checkpoint_period` symbols (0: once, after the whole
  /// stream) the run polls the deadline/cancellation token and fires the
  /// "batch.frame" fault site. An idle control with no fault site armed
  /// never checkpoints. A frame is computed in closed form only when no
  /// checkpoint falls before its last symbol, so checkpoints and fault
  /// checks fire after exactly the same symbol counts as when stepping.
  ///
  /// `report_limit` > 0 cuts what each closed-form frame emits: only the
  /// lanes whose match count is at or above the count whose cycle holds the
  /// frame's report_limit-th report, i.e. exactly the prefix of the frame's
  /// full events through that cycle (a tie at the cut is kept whole).
  ///
  /// `count_floor` cuts closed-form frames further: the frame that starts
  /// at symbol s of `stream` emits only lanes whose match count reaches
  /// count_floor[s / (2d+L+3)] (0 past the span's end), so a frame keeps
  /// the lanes at or above the larger of that floor and the limit's cut
  /// count. A floor above d empties the frame.
  ///
  /// Stepped symbols report in full, a 0 limit and an empty floor keep
  /// every event, and the state left behind depends on neither.
  /// report_count() counts the events left out too.
  std::vector<ReportEvent> run_continue(
      std::span<const std::uint8_t> stream,
      const util::RunControl& control = {}, std::size_t report_limit = 0,
      std::span<const std::uint32_t> count_floor = {});

  std::uint64_t cycle() const noexcept { return cycle_; }
  /// Frames computed in closed form since construction (the rest of the
  /// cycle() symbols were stepped).
  std::uint64_t closed_form_frames() const noexcept {
    return closed_form_frames_;
  }
  /// Reports since construction, including those a report limit kept out
  /// of reports() — the count an unlimited run would have emitted.
  std::uint64_t report_count() const noexcept { return report_count_; }
  const std::vector<ReportEvent>& reports() const noexcept { return reports_; }
  const BatchProgram& program() const noexcept { return *program_; }

  /// The width stepped symbols advance at.
  LaneWidth lane_width() const noexcept { return kernels_.width; }

 private:
  /// True when the dynamic state equals what reset() leaves, apart from
  /// cycle_, reports_ and ring_pos_ (unobservable while the ring is zero).
  /// A member added to the dynamic state must be checked here too.
  bool quiescent() const noexcept;
  /// Consumes the frame at the head of `rest` in closed form, emitting its
  /// events up to `report_limit` and from `count_floor` up (see run()), and
  /// returns true; or returns false (consuming nothing) when the frame
  /// template or the quiescent precondition does not hold.
  bool try_closed_form_frame(std::span<const std::uint8_t> rest,
                             std::size_t report_limit,
                             std::uint32_t count_floor);

  std::shared_ptr<const BatchProgram> program_;
  LaneKernels kernels_;     ///< the stepping kernels of the lane width
  /// The closed-form frame kernels: resolve_match_counts()'s registry.
  const MatchCountKernels* match_counts_ = nullptr;
  std::size_t eff_words_ = 0;  ///< words_ rounded up to the kernel block
  std::size_t frame_cycles_ = 0;  ///< 2d+L+3: one closed-form frame

  std::uint64_t cycle_ = 0;
  std::uint64_t closed_form_frames_ = 0;
  std::uint64_t report_count_ = 0;
  /// Set by reset() and by every closed-form frame, which leave the state
  /// quiescent; cleared by step(), the only other writer of that state.
  /// While it is set, a frame skips the quiescent() scan.
  bool known_quiescent_ = false;
  bool guard_prev_ = false;  ///< guard output last cycle (scalar: uniform)
  bool sort_prev_ = false;   ///< sort-state output last cycle
  std::uint64_t bridge_ = 0;  ///< bridge-chain outputs last cycle, bit k = slot k
  std::vector<std::uint64_t> chain_;  ///< backbone outputs, bit i = dim i
  /// Ring of the last L packed match words (the collector delay line).
  std::vector<std::uint64_t> match_ring_;
  std::size_t ring_pos_ = 0;
  std::vector<std::uint64_t> planes_;     ///< Q x words: bit-sliced counts
  std::vector<std::uint64_t> reset_planes_;  ///< planes_ after reset()
  std::vector<std::uint64_t> cond_prev_;  ///< count condition last cycle
  std::vector<std::uint64_t> pulse_;      ///< staged counter pulse
  std::vector<std::uint64_t> counter_out_;  ///< counter outputs last cycle
  std::vector<std::uint64_t> match_scratch_;
  /// Closed-form scratch: max(class_count, 2) x dim_words query masks (bit
  /// i of class c = the dim-i data symbol is accepted by c; the front end
  /// writes them all), per-lane match counts (zero past the live lanes, up
  /// to a whole block), their group maxima (one entry per block, see
  /// LaneMatchCounts), a cut frame's candidate lanes (with the room
  /// ListCandidates asks for), and the counting sort's per-count output
  /// cursors. The counts, maxima and candidates start on a cache line, so
  /// no 64-byte store or load of the kernels splits one, whatever address
  /// the heap hands out.
  std::vector<std::uint64_t> query_bits_;
  std::vector<std::uint32_t, CacheLineAllocator<std::uint32_t>> lane_counts_;
  std::vector<std::uint32_t, CacheLineAllocator<std::uint32_t>> group_max_;
  std::vector<std::uint32_t, CacheLineAllocator<std::uint32_t>>
      candidate_lanes_;
  std::vector<std::size_t> count_cursor_;
  std::vector<ReportEvent> reports_;
};

}  // namespace apss::apsim
