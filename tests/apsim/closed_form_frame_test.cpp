// Differential and property suite for BatchSimulator's closed-form frame
// path: a complete query frame that starts from the quiescent state is
// computed from per-lane match counts instead of being stepped cycle by
// cycle. Every run() here is compared with a per-symbol step() loop on the
// same program (the cycle-stepping kernels, which never take the closed
// form) and, where the network is small enough, with the cycle-accurate
// apsim::Simulator. ReportEvent streams, cycle(), and the state a run leaves
// behind (probed by stepping both simulators through the same continuation)
// must be bit-identical, at every lane width, SIMD and APSS_DISABLE_SIMD=1
// alike. Checkpoints and the batch.frame fault site must fire after the
// same symbol counts as when stepping. A report limit must cut each
// closed-form frame to the prefix of its full events through the cycle of
// the limit-th report, leave stepped frames whole, and change neither
// report_count() nor the state a run leaves behind, also where the floor
// the cut takes from the per-block maxima decides which blocks it visits.
// Programs loaded from a hand-built state, with symbols in both classes or
// in neither, check the two-class count's every term. Both resolved
// match-count kernels must write the same counts and block maxima as the
// portable ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apsim/batch_simulator.hpp"
#include "apsim/lane_kernels_impl.hpp"
#include "apsim/simulator.hpp"
#include "apss_test_support.hpp"
#include "core/batch_compile.hpp"
#include "core/design.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "core/opt/vector_packing.hpp"
#include "core/stream.hpp"
#include "util/cancellation.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace apss::apsim {
namespace {

using core::Alphabet;

constexpr LaneWidth kWidths[] = {LaneWidth::k64, LaneWidth::k256,
                                 LaneWidth::k512};

/// Scoped APSS_DISABLE_SIMD=1: portable lane kernels and bit count for the
/// simulators constructed inside the scope.
class ForcePortable {
 public:
  ForcePortable() { setenv("APSS_DISABLE_SIMD", "1", 1); }
  ~ForcePortable() { unsetenv("APSS_DISABLE_SIMD"); }
};

/// A compiled configuration, its network (for the cycle-accurate
/// reference) and its frame geometry.
struct Config {
  anml::AutomataNetwork network;
  std::shared_ptr<const BatchProgram> program;
  std::size_t dims = 0;
  std::size_t levels = 1;

  std::size_t frame() const { return 2 * dims + levels + 3; }
  core::StreamSpec spec() const { return core::StreamSpec{dims, levels}; }
};

Config hamming(const knn::BinaryDataset& data,
               const core::HammingMacroOptions& opt = {}) {
  Config c;
  std::vector<core::MacroLayout> layouts;
  for (std::size_t i = 0; i < data.size(); ++i) {
    layouts.push_back(core::append_hamming_macro(
        c.network, data.vector(i), static_cast<std::uint32_t>(i), opt));
  }
  std::string reason;
  c.program = core::compile_hamming_batch(c.network, layouts, {}, &reason);
  if (c.program == nullptr) {
    throw std::runtime_error("try_compile declined: " + reason);
  }
  c.dims = data.dims();
  c.levels = layouts.front().collector_levels;
  return c;
}

Config packed(const knn::BinaryDataset& data,
              const core::VectorPackingOptions& opt) {
  Config c;
  const auto layouts = core::build_packed_network(c.network, data, opt);
  std::string reason;
  c.program = core::compile_packed_batch(c.network, layouts, {}, &reason);
  if (c.program == nullptr) {
    throw std::runtime_error("packed try_compile declined: " + reason);
  }
  c.dims = data.dims();
  c.levels = layouts.front().collector_levels;
  return c;
}

Config multiplexed(const knn::BinaryDataset& data, std::size_t slices) {
  Config c;
  const auto layouts =
      core::build_multiplexed_network(c.network, data, slices);
  std::string reason;
  c.program = core::compile_hamming_batch(c.network, layouts, {}, &reason);
  if (c.program == nullptr) {
    throw std::runtime_error("mux try_compile declined: " + reason);
  }
  c.dims = data.dims();
  c.levels = layouts.front().collector_levels;
  return c;
}

/// A random symbol that is neither SOF nor EOF: any such symbol may sit in
/// a frame's data and fill positions.
std::uint8_t payload(util::Rng& rng) {
  for (;;) {
    const auto s = static_cast<std::uint8_t>(rng.below(256));
    if (s != Alphabet::kSof && s != Alphabet::kEof) {
      return s;
    }
  }
}

void append_random_frame(util::Rng& rng, const Config& c,
                         std::vector<std::uint8_t>& out) {
  out.push_back(Alphabet::kSof);
  for (std::size_t i = 0; i + 2 < c.frame(); ++i) {
    out.push_back(payload(rng));
  }
  out.push_back(Alphabet::kEof);
}

std::vector<std::uint8_t> random_frames(util::Rng& rng, const Config& c,
                                        std::size_t frames) {
  std::vector<std::uint8_t> out;
  for (std::size_t f = 0; f < frames; ++f) {
    append_random_frame(rng, c, out);
  }
  return out;
}

/// Frames a fresh simulator computes in closed form over `stream`.
std::uint64_t closed_frames_in(const Config& c,
                               std::span<const std::uint8_t> stream) {
  BatchSimulator sim(c.program);
  sim.run(stream);
  return sim.closed_form_frames();
}

constexpr std::uint64_t kAnyCount = ~std::uint64_t{0};

/// run() vs a step() loop at one width: same events, same cycle(), and the
/// same behaviour through `probe` afterwards. Returns run()'s events.
std::vector<ReportEvent> run_vs_stepping(const Config& c, LaneWidth width,
                                         std::span<const std::uint8_t> stream,
                                         std::span<const std::uint8_t> probe,
                                         std::uint64_t closed_frames,
                                         const std::string& context) {
  BatchSimulator fast(c.program, width);
  BatchSimulator slow(c.program, width);
  const std::vector<ReportEvent> events = fast.run(stream);
  for (const std::uint8_t s : stream) {
    slow.step(s);
  }
  EXPECT_EQ(events, slow.reports()) << context;
  EXPECT_EQ(fast.cycle(), slow.cycle()) << context;
  EXPECT_EQ(fast.report_count(), events.size()) << context;
  EXPECT_EQ(slow.report_count(), events.size()) << context;
  EXPECT_EQ(slow.closed_form_frames(), 0u) << context;
  if (closed_frames != kAnyCount) {
    EXPECT_EQ(fast.closed_form_frames(), closed_frames) << context;
  }
  for (const std::uint8_t s : probe) {
    fast.step(s);
    slow.step(s);
  }
  EXPECT_EQ(fast.reports(), slow.reports()) << context << " (continuation)";
  return events;
}

/// Start positions of the frames run() computes in closed form over
/// `stream`, found by replaying it on a fresh simulator: a whole frame
/// template at a time where one starts (no closed-form frame can start
/// inside it), else one symbol. Each run_continue then takes the closed
/// form exactly where the whole-stream run does.
std::vector<std::uint64_t> closed_frame_starts(
    const Config& c, std::span<const std::uint8_t> stream) {
  const BatchProgramState state = c.program->state();
  const std::size_t frame = c.frame();
  BatchSimulator sim(c.program);
  std::vector<std::uint64_t> starts;
  for (std::size_t pos = 0; pos < stream.size();) {
    const auto interior = [&] {
      const auto data = stream.subspan(pos + 1, frame - 2);
      return std::none_of(data.begin(), data.end(), [&](std::uint8_t s) {
        return s == state.sof || s == state.eof;
      });
    };
    const bool is_template = pos + frame <= stream.size() &&
                             stream[pos] == state.sof &&
                             stream[pos + frame - 1] == state.eof &&
                             interior();
    const std::size_t len = is_template ? frame : 1;
    const std::uint64_t before = sim.closed_form_frames();
    sim.run_continue(stream.subspan(pos, len));
    if (sim.closed_form_frames() != before) {
      starts.push_back(pos);
    }
    pos += len;
  }
  return starts;
}

/// What a run with `limit` must emit: `full` with each closed-form frame
/// (cycles start + 1 .. start + frame) cut after the cycle that holds its
/// limit-th report; every other event kept.
std::vector<ReportEvent> cut_events(const std::vector<ReportEvent>& full,
                                    const std::vector<std::uint64_t>& starts,
                                    std::size_t frame, std::size_t limit) {
  std::vector<ReportEvent> out;
  std::size_t f = 0;
  std::size_t kept = 0;
  std::uint64_t cut_cycle = 0;
  for (const ReportEvent& e : full) {
    while (f < starts.size() && e.cycle > starts[f] + frame) {
      ++f;
      kept = 0;
    }
    if (f == starts.size() || e.cycle <= starts[f]) {
      out.push_back(e);  // a stepped cycle
    } else if (kept < limit) {
      ++kept;
      cut_cycle = e.cycle;
      out.push_back(e);
    } else if (e.cycle == cut_cycle) {
      out.push_back(e);  // the rest of the limit-th report's cycle
    }
  }
  return out;
}

/// run(stream, control, limit) at one width against an unlimited run of
/// the same stream: the cut events, the full report_count(), and the same
/// cycle(), closed-form frames and behaviour through `probe` afterwards.
void expect_limited_run(const Config& c, LaneWidth width,
                        std::span<const std::uint8_t> stream,
                        std::span<const std::uint8_t> probe,
                        std::size_t limit,
                        const std::vector<ReportEvent>& want,
                        const std::string& context) {
  BatchSimulator cut(c.program, width);
  BatchSimulator whole(c.program, width);
  EXPECT_EQ(cut.run(stream, util::RunControl{}, limit), want) << context;
  const std::size_t full_count = whole.run(stream).size();
  EXPECT_EQ(cut.report_count(), full_count) << context;
  EXPECT_EQ(cut.cycle(), whole.cycle()) << context;
  EXPECT_EQ(cut.closed_form_frames(), whole.closed_form_frames()) << context;
  const auto cut_at = static_cast<std::ptrdiff_t>(cut.reports().size());
  const auto whole_at = static_cast<std::ptrdiff_t>(whole.reports().size());
  for (const std::uint8_t s : probe) {
    cut.step(s);
    whole.step(s);
  }
  EXPECT_EQ(std::vector<ReportEvent>(cut.reports().begin() + cut_at,
                                     cut.reports().end()),
            std::vector<ReportEvent>(whole.reports().begin() + whole_at,
                                     whole.reports().end()))
      << context << " (continuation)";
  EXPECT_EQ(cut.report_count(), whole.report_count()) << context;
}

/// The whole matrix for one stream: every width, SIMD and portable, against
/// stepping; every width's events against each other; when
/// `with_reference`, against the cycle-accurate Simulator; and every width,
/// SIMD and portable, under report limits 1, 2, 10, blocks / 2, lanes / 12
/// (105 at 1264 lanes: a k = 100 search's shape, where ~100 visited blocks
/// list more candidates than the cut keeps), blocks - 1, blocks, blocks + 1
/// (around where the block floor turns off), lanes - 1, lanes and
/// 2 x lanes. The probe that checks the state left behind is one more
/// frame plus a ragged tail with a stray SOF.
void expect_closed_form(const Config& c, std::span<const std::uint8_t> stream,
                        std::uint64_t closed_frames, bool with_reference,
                        util::Rng& rng, const std::string& context) {
  std::vector<std::uint8_t> probe = random_frames(rng, c, 1);
  for (std::size_t i = 0; i < c.dims + 2; ++i) {
    probe.push_back(i == 1 ? Alphabet::kSof : payload(rng));
  }
  std::vector<ReportEvent> first;
  for (const LaneWidth w : kWidths) {
    const auto events = run_vs_stepping(c, w, stream, probe, closed_frames,
                                        context + " w" + to_string(w));
    if (first.empty()) {
      first = events;
    }
    EXPECT_EQ(events, first) << context << " w" << to_string(w);
  }
  {
    ForcePortable portable;
    for (const LaneWidth w : kWidths) {
      EXPECT_EQ(run_vs_stepping(c, w, stream, probe, closed_frames,
                                context + " portable w" + to_string(w)),
                first);
    }
  }
  if (with_reference) {
    Simulator reference(c.network);
    EXPECT_EQ(reference.run(stream), first) << context << " vs reference";
  }
  const std::vector<std::uint64_t> starts = closed_frame_starts(c, stream);
  if (closed_frames != kAnyCount) {
    EXPECT_EQ(starts.size(), closed_frames) << context;
  }
  const std::size_t lanes = c.program->macro_count();
  const std::size_t blocks = (lanes + kMatchBlockLanes - 1) / kMatchBlockLanes;
  for (const std::size_t limit :
       {std::size_t{1}, std::size_t{2}, std::size_t{10}, blocks / 2,
        lanes / 12, blocks - 1, blocks, blocks + 1, lanes - 1, lanes,
        2 * lanes}) {
    if (limit == 0) {
      continue;  // blocks / 2 and blocks - 1 at one block, lanes / 12 under
                 // 12 lanes, lanes - 1 at one lane: no limit
    }
    const auto want = cut_events(first, starts, c.frame(), limit);
    if (limit >= lanes) {
      EXPECT_EQ(want, first) << context;
    }
    const std::string at = context + " limit=" + std::to_string(limit);
    for (const LaneWidth w : kWidths) {
      expect_limited_run(c, w, stream, probe, limit, want,
                         at + " w" + to_string(w));
    }
    ForcePortable portable;
    expect_limited_run(c, LaneWidth::k64, stream, probe, limit, want,
                       at + " portable");
  }
}

/// The largest match count reported in a stream of whole frames (a lane
/// with h matches reports at frame offset frame - h).
std::uint64_t max_match_count(const std::vector<ReportEvent>& events,
                              std::size_t frame) {
  std::uint64_t best = 0;
  for (const ReportEvent& e : events) {
    best = std::max<std::uint64_t>(best, frame - ((e.cycle - 1) % frame + 1));
  }
  return best;
}

// --- Families, dimensions and lane counts -----------------------------------

TEST(ClosedFormFrame, HammingDimensionSweep) {
  // 63/64/65 straddle a dimension word; 300 and 1100 need counts above 255
  // (a self-query matches every dimension); 1100 has collector depth L = 2.
  util::Rng rng(20170529);
  for (const std::size_t dims : {1u, 7u, 63u, 64u, 70u, 128u, 300u, 1100u}) {
    const std::size_t lanes = dims >= 300 ? 65 : 1 + rng.below(70);
    const auto data = test::random_dataset(rng, lanes, dims);
    const Config c = hamming(data);
    if (dims == 1100) {
      EXPECT_EQ(c.levels, 2u);
    }
    std::vector<std::uint8_t> stream = random_frames(rng, c, 2);
    const core::SymbolStreamEncoder enc(c.spec());
    enc.append_query(data.row(lanes - 1), stream);
    enc.append_query(test::random_dataset(rng, 1, dims).row(0), stream);
    const std::string context =
        "d=" + std::to_string(dims) + " lanes=" + std::to_string(lanes);
    expect_closed_form(c, stream, 4, /*with_reference=*/true, rng, context);
    EXPECT_EQ(max_match_count(BatchSimulator(c.program).run(stream),
                              c.frame()),
              dims)
        << context;
  }
}

TEST(ClosedFormFrame, LaneCountSweep) {
  // 1, 7, 9, 63, 65 and 1023 lanes end in a partial block, whose pad lanes
  // count 0 and must never be counted or emitted, even when the cut count
  // is 0. The last two frames come from the encoder (a dataset row, then a
  // random query): there every data symbol is in exactly one class, the
  // case every engine frame takes, while about half of the random payload
  // symbols have bit 7 set and fall in neither class.
  util::Rng rng(1264);
  for (const std::size_t lanes : {1u, 7u, 9u, 63u, 64u, 65u, 1023u, 1264u}) {
    const auto data = test::random_dataset(rng, lanes, 70);
    const Config c = hamming(data);
    std::vector<std::uint8_t> stream = random_frames(rng, c, 3);
    const core::SymbolStreamEncoder enc(c.spec());
    enc.append_query(data.row(rng.below(lanes)), stream);
    enc.append_query(test::random_dataset(rng, 1, 70).row(0), stream);
    expect_closed_form(c, stream, 5, /*with_reference=*/true, rng,
                       "lanes=" + std::to_string(lanes));
  }
}

TEST(ClosedFormFrame, DeepCollectorTrees) {
  // Fan-in 2 forces L >= 3 at small d, so the collector delay line the
  // frame template folds in spans several cycles.
  util::Rng rng(77);
  core::HammingMacroOptions opt;
  opt.collector_fan_in = 2;
  opt.max_counter_fan_in = 2;
  for (const std::size_t dims : {7u, 64u, 70u}) {
    const Config c = hamming(test::random_dataset(rng, 65, dims), opt);
    EXPECT_GE(c.levels, 3u);
    expect_closed_form(c, random_frames(rng, c, 3), 3, true, rng,
                       "deep d=" + std::to_string(dims));
  }
}

TEST(ClosedFormFrame, PackedFlatAndTreeGroups) {
  util::Rng rng(808);
  for (const auto style :
       {core::CollectorStyle::kFlat, core::CollectorStyle::kTree}) {
    for (const std::size_t group : {5u, 8u}) {
      for (const std::size_t dims : {7u, 70u, 128u}) {
        core::VectorPackingOptions opt;
        opt.group_size = group;
        opt.style = style;
        opt.macro.collector_fan_in = 4;  // deeper trees for kTree
        const auto data = test::random_dataset(rng, 65, dims);
        const Config c = packed(data, opt);
        ASSERT_EQ(c.program->family(), MacroFamily::kPacked);
        std::vector<std::uint8_t> stream = random_frames(rng, c, 2);
        core::SymbolStreamEncoder(c.spec()).append_query(data.row(0), stream);
        expect_closed_form(
            c, stream, 3, true, rng,
            std::string(style == core::CollectorStyle::kFlat ? "flat"
                                                             : "tree") +
                " g=" + std::to_string(group) + " d=" + std::to_string(dims) +
                " L=" + std::to_string(c.levels));
      }
    }
  }
}

TEST(ClosedFormFrame, MultiplexedMultiClassSymbols) {
  // Multiplexed data symbols carry one bit per slice, so each is accepted
  // by several match classes at once; random payload bytes hit arbitrary
  // class subsets.
  util::Rng rng(606);
  for (const std::size_t dims : {10u, 70u}) {
    const Config c = multiplexed(test::random_dataset(rng, 67, dims), 7);
    ASSERT_EQ(c.program->family(), MacroFamily::kMultiplexed);
    std::size_t frames = 0;
    std::vector<std::uint8_t> stream =
        core::MultiplexedStreamEncoder(c.spec())
            .encode_batch(test::random_dataset(rng, 9, dims), frames);
    ASSERT_EQ(stream.size(), frames * c.frame());
    append_random_frame(rng, c, stream);
    expect_closed_form(c, stream, frames + 1, true, rng,
                       "mux d=" + std::to_string(dims));
  }
}

// --- Symbols in both classes or in neither ----------------------------------

/// A program loaded through BatchProgram::from_state rather than compiled
/// from a network: `lanes` lanes over `dims` dimensions, each lane's class
/// at each dimension drawn from `classes` (1 or 2), and each symbol but SOF
/// and EOF accepted by a random subset of the classes, with data_bit(0) in
/// every class and data_bit(1) in none. Engine-built programs put each data
/// symbol in exactly one class, so only a state like this one reaches the
/// two-class count's base and exactly-one-class terms.
Config hand_built(util::Rng& rng, std::size_t lanes, std::size_t dims,
                  std::size_t classes) {
  BatchProgramState s;
  s.lanes = lanes;
  s.dims = dims;
  s.levels = 1 + rng.below(3);
  s.class_count = classes;
  s.sof = Alphabet::kSof;
  s.eof = Alphabet::kEof;
  const auto all = static_cast<std::uint16_t>((1u << classes) - 1);
  for (std::size_t sym = 0; sym < 256; ++sym) {
    if (sym != s.sof && sym != s.eof) {
      s.sym_classes[sym] = static_cast<std::uint16_t>(rng.below(all + 1));
    }
  }
  s.sym_classes[Alphabet::data_bit(false)] = all;
  s.sym_classes[Alphabet::data_bit(true)] = 0;
  const std::size_t words = (lanes + 63) / 64;
  s.dim_rows.assign(dims * classes * words, 0);
  for (std::size_t l = 0; l < lanes; ++l) {
    s.report_elem.push_back(static_cast<anml::ElementId>(l));
    s.report_code.push_back(static_cast<std::uint32_t>(l));
    for (std::size_t i = 0; i < dims; ++i) {
      s.dim_rows[(i * classes + rng.below(classes)) * words + l / 64] |=
          std::uint64_t{1} << (l % 64);
    }
  }
  Config c;
  std::string error;
  c.program = BatchProgram::from_state(s, &error);
  if (c.program == nullptr) {
    throw std::runtime_error(error);
  }
  c.dims = dims;
  c.levels = s.levels;
  return c;
}

TEST(ClosedFormTwoClass, SymbolsInBothClassesOrInNeither) {
  // Random payload frames mix symbols in class 0 only, class 1 only, both
  // and neither. The encoder's frames use only data_bit(0), which every
  // lane matches, and data_bit(1), which none does, so every lane counts
  // the query's zero bits and one tie holds the whole frame. No network
  // exists for the cycle-accurate reference; stepping is the oracle.
  util::Rng rng(615);
  for (const std::size_t classes : {1u, 2u}) {
    for (const std::size_t lanes : {1u, 9u, 64u, 200u}) {
      for (const std::size_t dims : {7u, 70u, 130u}) {
        const Config c = hand_built(rng, lanes, dims, classes);
        std::vector<std::uint8_t> stream = random_frames(rng, c, 3);
        const core::SymbolStreamEncoder enc(c.spec());
        const auto query = test::random_dataset(rng, 1, dims);
        enc.append_query(query.row(0), stream);
        const std::string context =
            "classes=" + std::to_string(classes) + " lanes=" +
            std::to_string(lanes) + " d=" + std::to_string(dims);
        expect_closed_form(c, stream, 4, /*with_reference=*/false, rng,
                           context);
        const auto events = BatchSimulator(c.program).run(stream);
        std::size_t zeros = 0;
        for (std::size_t i = 0; i < dims; ++i) {
          zeros += query.get(0, i) ? 0 : 1;
        }
        const std::size_t last = 3 * c.frame();
        EXPECT_EQ(std::count_if(events.begin(), events.end(),
                                [&](const ReportEvent& e) {
                                  return e.cycle == last + c.frame() - zeros;
                                }),
                  static_cast<std::ptrdiff_t>(lanes))
            << context;
      }
    }
  }
}

// --- The block floor ---------------------------------------------------------

/// A configuration of d = `dims` whose lane l matches the all-zero query in
/// exactly counts[l] dimensions (its vector has dims - counts[l] ones).
Config with_counts(const std::vector<std::size_t>& counts, std::size_t dims) {
  knn::BinaryDataset data(counts.size(), dims);
  for (std::size_t l = 0; l < counts.size(); ++l) {
    for (std::size_t i = 0; i < dims - counts[l]; ++i) {
      data.set(l, i, true);
    }
  }
  return hamming(data);
}

/// The all-zero query's frame (lane l counts counts[l]), then the all-ones
/// query's (lane l counts dims - counts[l]).
std::vector<std::uint8_t> zero_then_ones(const Config& c) {
  knn::BinaryDataset queries(2, c.dims);
  for (std::size_t i = 0; i < c.dims; ++i) {
    queries.set(1, i, true);
  }
  std::vector<std::uint8_t> stream;
  const core::SymbolStreamEncoder enc(c.spec());
  enc.append_query(queries.row(0), stream);
  enc.append_query(queries.row(1), stream);
  return stream;
}

/// Events a run under `limit` keeps from the stream's first frame.
std::size_t kept_in_first_frame(const Config& c,
                                std::span<const std::uint8_t> stream,
                                std::size_t limit) {
  BatchSimulator sim(c.program);
  const auto events = sim.run(stream, util::RunControl{}, limit);
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [&](const ReportEvent& e) {
        return e.cycle <= c.frame();
      }));
}

TEST(ClosedFormBlockFloor, TieAtTheCutStraddlesTwoBlocks) {
  // Lane 20 matches 14 dimensions, lanes 6 and 7 (block 0) and 8 and 9
  // (block 1) tie at 11, and every other lane matches 3. At limits 2 and 3
  // the floor is 11, the second and third largest block maxima, and the
  // cut keeps the whole tie across both blocks.
  util::Rng rng(611);
  std::vector<std::size_t> counts(32, 3);
  counts[6] = counts[7] = counts[8] = counts[9] = 11;
  counts[20] = 14;
  const Config c = with_counts(counts, 16);
  const auto stream = zero_then_ones(c);
  EXPECT_EQ(kept_in_first_frame(c, stream, 1), 1u);
  EXPECT_EQ(kept_in_first_frame(c, stream, 2), 5u);
  EXPECT_EQ(kept_in_first_frame(c, stream, 3), 5u);
  expect_closed_form(c, stream, 2, /*with_reference=*/true, rng,
                     "tie across blocks 0 and 1");
}

TEST(ClosedFormBlockFloor, KthBlockMaximumSharedBySeveralBlocks) {
  // Lane 3 of each block holds its maximum, 9 in five blocks, 12 in one and
  // less in two; the other lanes count below 9. At limit 2 the floor is 9,
  // shared by five blocks, and the cut keeps the 12 and all five 9s.
  util::Rng rng(612);
  const std::size_t maxima[] = {9, 12, 9, 9, 5, 9, 3, 9};
  std::vector<std::size_t> counts;
  for (const std::size_t top : maxima) {
    for (std::size_t i = 0; i < kMatchBlockLanes; ++i) {
      counts.push_back(i == 3 ? top : rng.below(std::min<std::size_t>(top, 9)));
    }
  }
  const Config c = with_counts(counts, 16);
  const auto stream = zero_then_ones(c);
  for (const std::size_t limit : {2u, 4u, 6u}) {
    EXPECT_EQ(kept_in_first_frame(c, stream, limit), 6u) << limit;
  }
  expect_closed_form(c, stream, 2, /*with_reference=*/true, rng,
                     "shared block maximum");
}

TEST(ClosedFormBlockFloor, CandidatesBelowTheCutAreDropped) {
  // Block maxima 14, 12, 9, 9 and at most 6 in blocks 4-7. Blocks 0 and 1
  // also hold lanes at 13, 12, 10 and 9, so the visited blocks list
  // candidates at or above the floor F that lie below the cut count
  // h_min, and the keep pass must drop them:
  // - limit 2: F = 12, h_min = 13, the two 12s are dropped;
  // - limits 3 and 4: F = 9, h_min = 12, the tie at 12 straddles blocks 0
  //   and 1 and is kept whole, and six candidates at 9 or 10 are dropped;
  // - limit 5: F falls to the largest maximum of blocks 4-7, h_min to 10.
  util::Rng rng(614);
  std::vector<std::size_t> counts(8 * kMatchBlockLanes);
  for (std::size_t l = 4 * kMatchBlockLanes; l < counts.size(); ++l) {
    counts[l] = rng.below(7);
  }
  const std::size_t high[][2] = {{0, 14}, {1, 13}, {2, 12}, {4, 9},  {6, 9},
                                 {8, 10}, {9, 12}, {11, 9}, {19, 9}, {28, 9}};
  for (const auto& [lane, count] : high) {
    counts[lane] = count;
  }
  const Config c = with_counts(counts, 16);
  const auto stream = zero_then_ones(c);
  for (const auto& [limit, kept] :
       {std::pair<std::size_t, std::size_t>{2, 2}, {3, 4}, {4, 4}, {5, 5}}) {
    EXPECT_EQ(kept_in_first_frame(c, stream, limit), kept) << limit;
  }
  expect_closed_form(c, stream, 2, /*with_reference=*/true, rng,
                     "candidates below the cut");
}

TEST(ClosedFormBlockFloor, EveryLaneAtOneCount) {
  // One tie over every lane: any limit keeps the whole frame. At count 0
  // the floor and the cut count are 0, where only the lane bound keeps the
  // pad lanes of a partial last block out.
  util::Rng rng(613);
  for (const std::size_t lanes : {9u, 64u, 1264u}) {
    for (const std::size_t count : {0u, 5u}) {
      const Config c = with_counts(std::vector<std::size_t>(lanes, count), 12);
      const auto stream = zero_then_ones(c);
      EXPECT_EQ(kept_in_first_frame(c, stream, 1), lanes);
      expect_closed_form(c, stream, 2, /*with_reference=*/lanes < 100, rng,
                         "lanes=" + std::to_string(lanes) +
                             " count=" + std::to_string(count));
    }
  }
}

/// A random lane-major table: `row_words` random words per live lane in the
/// LaneMatchCounts layout, pad lanes zero.
std::vector<std::uint64_t> random_lane_bits(util::Rng& rng, std::size_t lanes,
                                            std::size_t row_words) {
  const std::size_t blocks = (lanes + kMatchBlockLanes - 1) / kMatchBlockLanes;
  std::vector<std::uint64_t> lane_bits(blocks * row_words * kMatchBlockLanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t k = 0; k < row_words; ++k) {
      lane_bits[(l / kMatchBlockLanes * row_words + k) * kMatchBlockLanes +
                l % kMatchBlockLanes] = rng.next();
    }
  }
  return lane_bits;
}

std::vector<std::uint64_t> random_words(util::Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> words(n);
  for (auto& word : words) {
    word = rng.next();
  }
  return words;
}

/// Pad lanes count 0 and each block maximum is its largest count.
void expect_pads_and_maxima(const std::vector<std::uint32_t>& counts,
                            const std::vector<std::uint32_t>& maxima,
                            std::size_t lanes, const std::string& context) {
  for (std::size_t b = 0; b < maxima.size(); ++b) {
    const auto block =
        counts.begin() + static_cast<std::ptrdiff_t>(b * kMatchBlockLanes);
    EXPECT_EQ(maxima[b], *std::max_element(block, block + kMatchBlockLanes))
        << context;
  }
  for (std::size_t l = lanes; l < counts.size(); ++l) {
    EXPECT_EQ(counts[l], 0u) << context;
  }
}

TEST(MatchCountKernels, ResolvedKernelMatchesThePortableOne) {
  // Random tables over whole and partial blocks, fewer and more than the 8
  // blocks the VPOPCNTDQ kernels reduce at once. The multi-class kernel's
  // pad lanes have zero rows; the two-class kernel must zero them itself,
  // since a zero row still counts base - popcount(query & exact).
  util::Rng rng(614);
  for (const std::size_t lanes : {1u, 8u, 9u, 1024u, 1264u}) {
    const std::size_t blocks =
        (lanes + kMatchBlockLanes - 1) / kMatchBlockLanes;
    for (const std::size_t row_words : {1u, 4u, 5u}) {
      const auto lane_bits = random_lane_bits(rng, lanes, row_words);
      const auto query = random_words(rng, row_words);
      const std::string context = "multi-class lanes=" +
                                  std::to_string(lanes) +
                                  " row_words=" + std::to_string(row_words);
      std::vector<std::uint32_t> counts(blocks * kMatchBlockLanes);
      std::vector<std::uint32_t> maxima(blocks);
      detail::match_counts_impl(lane_bits.data(), query.data(), row_words,
                                blocks, counts.data(), maxima.data());
      expect_pads_and_maxima(counts, maxima, lanes, context);
      for (const bool portable : {false, true}) {
        std::optional<ForcePortable> force;
        if (portable) {
          force.emplace();
        }
        std::vector<std::uint32_t> got_counts(counts.size(), 0xdeadbeef);
        std::vector<std::uint32_t> got_maxima(blocks, 0xdeadbeef);
        resolve_match_counts().multi_class(lane_bits.data(), query.data(),
                                           row_words, blocks,
                                           got_counts.data(),
                                           got_maxima.data());
        EXPECT_EQ(got_counts, counts) << context << " portable=" << portable;
        EXPECT_EQ(got_maxima, maxima) << context << " portable=" << portable;
      }
    }
    for (const std::size_t row_words : {1u, 2u, 3u}) {
      const auto lane_bits = random_lane_bits(rng, lanes, row_words);
      const auto query = random_words(rng, row_words);
      const auto exact = random_words(rng, row_words);
      std::uint32_t base = static_cast<std::uint32_t>(rng.below(64));
      for (const std::uint64_t word : exact) {
        base += static_cast<std::uint32_t>(std::popcount(word));
      }
      const std::string context = "two-class lanes=" + std::to_string(lanes) +
                                  " row_words=" + std::to_string(row_words);
      std::vector<std::uint32_t> counts(blocks * kMatchBlockLanes);
      std::vector<std::uint32_t> maxima(blocks);
      detail::two_class_counts_impl(lane_bits.data(), query.data(),
                                    exact.data(), base, row_words, lanes,
                                    counts.data(), maxima.data());
      expect_pads_and_maxima(counts, maxima, lanes, context);
      for (std::size_t l = 0; l < lanes; ++l) {
        std::uint32_t h = base;
        for (std::size_t k = 0; k < row_words; ++k) {
          const std::uint64_t row =
              lane_bits[(l / kMatchBlockLanes * row_words + k) *
                            kMatchBlockLanes +
                        l % kMatchBlockLanes];
          h -= static_cast<std::uint32_t>(
              std::popcount((row ^ query[k]) & exact[k]));
        }
        ASSERT_EQ(counts[l], h) << context << " lane " << l;
      }
      for (const bool portable : {false, true}) {
        std::optional<ForcePortable> force;
        if (portable) {
          force.emplace();
        }
        std::vector<std::uint32_t> got_counts(counts.size(), 0xdeadbeef);
        std::vector<std::uint32_t> got_maxima(blocks, 0xdeadbeef);
        resolve_match_counts().two_class(
            lane_bits.data(), query.data(), exact.data(), base, row_words,
            lanes, got_counts.data(), got_maxima.data());
        EXPECT_EQ(got_counts, counts) << context << " portable=" << portable;
        EXPECT_EQ(got_maxima, maxima) << context << " portable=" << portable;
      }
    }
  }
}

TEST(MatchCountKernels, ResolvedKernelNamesItself) {
  // Each build carries its own name, which the engine reports as
  // BackendCompileStats::match_count_isa.
  const MatchCountKernels resolved = resolve_match_counts();
  const MatchCountKernels* avx512 = detail::avx512_match_counts();
  const MatchCountKernels* popcnt = detail::popcnt_match_counts();
  if (avx512 != nullptr && resolved.two_class == avx512->two_class) {
    EXPECT_STREQ(resolved.isa, "avx512-vpopcntdq");
  } else if (popcnt != nullptr && resolved.two_class == popcnt->two_class) {
    EXPECT_STREQ(resolved.isa, "popcnt");
  } else {
    EXPECT_STREQ(resolved.isa, "portable");
  }
  ForcePortable portable;
  EXPECT_STREQ(resolve_match_counts().isa, "portable");
}

// --- Adversarial streams -----------------------------------------------------

TEST(ClosedFormFrame, AdversarialStreams) {
  util::Rng rng(31337);
  const Config c = hamming(test::random_dataset(rng, 65, 20));
  const std::size_t frame = c.frame();
  const auto frames = random_frames(rng, c, 4);
  const auto interior = [&] { return 1 + rng.below(frame - 2); };

  // A stray SOF launches a second wavefront inside frame 1: that frame is
  // stepped, and so is any later one the wavefront still reaches.
  auto stray_sof = frames;
  stray_sof[frame + interior()] = Alphabet::kSof;
  expect_closed_form(c, stray_sof, kAnyCount, true, rng, "stray SOF");
  EXPECT_GE(closed_frames_in(c, stray_sof), 1u);
  EXPECT_LE(closed_frames_in(c, stray_sof), 3u);

  // An early EOF inside frame 2.
  auto early_eof = frames;
  early_eof[2 * frame + interior()] = Alphabet::kEof;
  expect_closed_form(c, early_eof, kAnyCount, true, rng, "early EOF");
  EXPECT_GE(closed_frames_in(c, early_eof), 2u);
  EXPECT_LE(closed_frames_in(c, early_eof), 3u);

  // A stream that starts inside a frame: its tail is stepped, and the
  // frames after its EOF run in closed form.
  const std::vector<std::uint8_t> misaligned(frames.begin() + interior(),
                                             frames.end());
  expect_closed_form(c, misaligned, 3, true, rng, "misaligned start");

  // A trailing partial frame is stepped.
  auto trailing = frames;
  trailing.insert(trailing.end(), frames.begin(),
                  frames.begin() + interior());
  expect_closed_form(c, trailing, 4, true, rng, "trailing partial frame");

  // A frame without its EOF leaves the sort state running, so the next
  // frame does not start quiescent and is stepped too; its EOF empties the
  // automaton and the last two frames are closed-form again.
  std::vector<std::uint8_t> unterminated(frames.begin(),
                                         frames.begin() + frame - 1);
  unterminated.insert(unterminated.end(), frames.begin() + frame,
                      frames.end());
  expect_closed_form(c, unterminated, 2, true, rng, "unterminated frame");
}

TEST(ClosedFormFrame, RunContinueSplitsFramesAcrossCalls) {
  util::Rng rng(4242);
  const Config c = hamming(test::random_dataset(rng, 70, 33));
  const std::size_t frame = c.frame();
  const auto stream = random_frames(rng, c, 6);
  BatchSimulator stepped(c.program);
  for (const std::uint8_t s : stream) {
    stepped.step(s);
  }
  for (int trial = 0; trial < 8; ++trial) {
    // Cuts anywhere on even trials, exactly on frame boundaries on odd ones.
    std::vector<std::size_t> cuts = {0, stream.size()};
    for (int i = 0; i < 3; ++i) {
      cuts.push_back(trial % 2 == 0 ? rng.below(stream.size())
                                    : frame * rng.below(6));
    }
    std::sort(cuts.begin(), cuts.end());
    std::uint64_t split_frames = 0;
    for (std::size_t f = 0; f < 6; ++f) {
      split_frames += std::any_of(cuts.begin(), cuts.end(), [&](auto p) {
        return p > f * frame && p < (f + 1) * frame;
      });
    }
    BatchSimulator sim(c.program);
    std::vector<ReportEvent> events;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const auto part = sim.run_continue(
          std::span(stream).subspan(cuts[i], cuts[i + 1] - cuts[i]));
      events.insert(events.end(), part.begin(), part.end());
    }
    EXPECT_EQ(events, stepped.reports()) << "trial " << trial;
    EXPECT_EQ(sim.cycle(), stepped.cycle()) << "trial " << trial;
    EXPECT_EQ(sim.closed_form_frames(), 6 - split_frames) << "trial " << trial;
  }
}

TEST(ClosedFormFrame, StepInterleavedWithRun) {
  util::Rng rng(5150);
  const Config c = hamming(test::random_dataset(rng, 65, 40));
  const std::size_t frame = c.frame();
  const auto stream = random_frames(rng, c, 5);
  BatchSimulator stepped(c.program);
  for (const std::uint8_t s : stream) {
    stepped.step(s);
  }

  // Two frames in closed form, half of the third stepped by hand, then
  // run_continue: it steps the rest of that frame, after whose EOF the
  // state is quiescent again and the last two frames are closed-form.
  BatchSimulator sim(c.program);
  sim.run_continue(std::span(stream).first(2 * frame));
  EXPECT_EQ(sim.closed_form_frames(), 2u);
  const std::size_t half = 2 * frame + frame / 2;
  for (std::size_t i = 2 * frame; i < half; ++i) {
    sim.step(stream[i]);
  }
  sim.run_continue(std::span(stream).subspan(half));
  EXPECT_EQ(sim.closed_form_frames(), 4u);
  EXPECT_EQ(sim.reports(), stepped.reports());
  EXPECT_EQ(sim.cycle(), stepped.cycle());

  // A whole frame stepped by hand also returns to quiescence.
  BatchSimulator again(c.program);
  for (std::size_t i = 0; i < frame; ++i) {
    again.step(stream[i]);
  }
  again.run_continue(std::span(stream).subspan(frame));
  EXPECT_EQ(again.closed_form_frames(), 4u);
  EXPECT_EQ(again.reports(), stepped.reports());
}

// --- Checkpoint and fault-site parity ---------------------------------------

class ClosedFormCheckpoints : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultInjector::instance().disarm_all(); }
};

/// Symbol counts after which the stepping loop checkpoints: every `period`
/// symbols, or once at the end of the stream when the period is 0.
std::vector<std::uint64_t> checkpoint_positions(std::uint64_t period,
                                                std::uint64_t length) {
  const std::uint64_t every = period > 0 ? period : length;
  std::vector<std::uint64_t> out;
  for (std::uint64_t p = every; p <= length; p += every) {
    out.push_back(p);
  }
  return out;
}

/// Symbol counts at which sim.run(stream, control) checks `site`: the k-th
/// check, armed to throw, leaves cycle() at that check's position.
template <class Sim>
std::vector<std::uint64_t> fault_positions(
    Sim& sim, std::string_view site, std::span<const std::uint8_t> stream,
    const util::RunControl& control) {
  auto& injector = util::FaultInjector::instance();
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = 1;; ++k) {
    util::FaultInjector::Plan plan;
    plan.fail_on_hit = k;
    plan.fail_count = 1;
    injector.arm(site, plan);
    try {
      sim.run(stream, control);
      break;
    } catch (const util::InjectedFault&) {
      out.push_back(sim.cycle());
    }
  }
  injector.disarm(site);
  return out;
}

TEST_F(ClosedFormCheckpoints, FireAtTheSameSymbolCountsAsStepping) {
  util::Rng rng(90210);
  const Config c = hamming(test::random_dataset(rng, 65, 16));
  const std::uint64_t frame = c.frame();
  const auto aligned = random_frames(rng, c, 5);
  std::vector<std::uint8_t> misaligned(7, Alphabet::kFill);
  misaligned.insert(misaligned.end(), aligned.begin(), aligned.end());

  struct Case {
    std::uint64_t period;
    const std::vector<std::uint8_t>* stream;
    std::uint64_t closed;  ///< frames computed in closed form
  };
  const Case cases[] = {
      {frame, &aligned, 5},
      {2 * frame, &aligned, 5},
      {0, &aligned, 5},
      // Not a multiple of the frame: the checkpoint drifts 7 symbols per
      // frame, and every frame it falls inside is stepped.
      {frame + 7, &aligned, kAnyCount},
      // A checkpoint 7 symbols before the end of every frame: all stepped.
      {frame, &misaligned, 0},
  };
  for (const Case& tc : cases) {
    const std::span<const std::uint8_t> stream(*tc.stream);
    const std::string context = "period=" + std::to_string(tc.period) +
                                " length=" + std::to_string(stream.size());
    const auto expected = checkpoint_positions(tc.period, stream.size());
    util::RunControl control;
    control.checkpoint_period = tc.period;

    // Events, check count and closed-form use with the site armed to count
    // only (any armed site selects the instrumented loop).
    BatchSimulator stepped(c.program);
    for (const std::uint8_t s : stream) {
      stepped.step(s);
    }
    util::FaultInjector::Plan count_only;
    count_only.fail_on_hit = 0;
    count_only.fail = false;
    util::FaultInjector::instance().arm(util::kFaultBatchFrame, count_only);
    BatchSimulator sim(c.program);
    EXPECT_EQ(sim.run(stream, control), stepped.reports()) << context;
    EXPECT_EQ(util::FaultInjector::instance().hits(util::kFaultBatchFrame),
              expected.size())
        << context;
    util::FaultInjector::instance().disarm(util::kFaultBatchFrame);
    if (tc.closed != kAnyCount) {
      EXPECT_EQ(sim.closed_form_frames(), tc.closed) << context;
    } else {
      EXPECT_GT(sim.closed_form_frames(), 0u) << context;
      EXPECT_LT(sim.closed_form_frames(), 5u) << context;
    }

    // Every check position, against the stepping contract and against the
    // cycle-accurate Simulator (which only steps).
    BatchSimulator batch(c.program);
    EXPECT_EQ(fault_positions(batch, util::kFaultBatchFrame, stream, control),
              expected)
        << context;
    Simulator reference(c.network);
    EXPECT_EQ(
        fault_positions(reference, util::kFaultSimFrame, stream, control),
        expected)
        << context;

    // Deadline and cancellation are polled at the same place: a dead
    // budget throws at the first checkpoint.
    util::CancellationToken token;
    token.request_cancel();
    util::RunControl cancelled = control;
    cancelled.cancel = &token;
    EXPECT_THROW(batch.run(stream, cancelled), util::OperationCancelled);
    EXPECT_EQ(batch.cycle(), expected.front()) << context;
    const util::Deadline expired = util::Deadline::after_ms(-1.0);
    util::RunControl late = control;
    late.deadline = &expired;
    EXPECT_THROW(batch.run(stream, late), util::DeadlineExceeded);
    EXPECT_EQ(batch.cycle(), expected.front()) << context;

    // A live control that never fires changes nothing.
    util::CancellationToken idle;
    util::RunControl engaged = control;
    engaged.cancel = &idle;
    BatchSimulator quiet(c.program);
    EXPECT_EQ(quiet.run(stream, engaged), stepped.reports()) << context;
    EXPECT_EQ(quiet.closed_form_frames(), sim.closed_form_frames()) << context;

    // A report limit under the checkpointed loop cuts exactly the frames it
    // computes in closed form: every frame of the aligned stream, none of
    // the misaligned one.
    if (tc.closed != kAnyCount) {
      std::vector<std::uint64_t> starts;
      for (std::uint64_t f = 0; f < tc.closed; ++f) {
        starts.push_back(f * frame);
      }
      BatchSimulator limited(c.program);
      EXPECT_EQ(limited.run(stream, engaged, 3),
                cut_events(stepped.reports(), starts, frame, 3))
          << context;
      EXPECT_EQ(limited.report_count(), stepped.reports().size()) << context;
      EXPECT_EQ(limited.closed_form_frames(), tc.closed) << context;
    }
  }
}

}  // namespace
}  // namespace apss::apsim
