// Structural mutation sweep for the bit-parallel compiler. Small plain,
// multiplexed (Fig. 6) and vector-packed (Fig. 5, tree and flat
// collectors) networks each take ONE random structural mutation: an edge
// dropped, added, redirected or duplicated; an STE reclassed; a reporting
// flag flipped; or a counter threshold moved by one. Every trial must end
// one of two ways: BatchProgram::try_compile declines, or the compiled
// program's ReportEvent stream equals the cycle-accurate reference's on a
// stream that mixes whole query frames with random symbols. The sweep also
// requires every shape to both compile and decline some mutations, and the
// declines to reach a floor of distinct reasons, so the recognizer's
// checks are exercised rather than bypassed.

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <vector>

#include "apsim/batch_simulator.hpp"
#include "apsim/simulator.hpp"
#include "apss_test_support.hpp"
#include "core/design.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "core/opt/vector_packing.hpp"
#include "util/rng.hpp"

namespace apss::apsim {
namespace {

enum class Shape { kPlain, kMultiplexed, kPackedTree, kPackedFlat };
constexpr std::array kShapes = {Shape::kPlain, Shape::kMultiplexed,
                                Shape::kPackedTree, Shape::kPackedFlat};

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::kPlain: return "plain";
    case Shape::kMultiplexed: return "multiplexed";
    case Shape::kPackedTree: return "packed-tree";
    case Shape::kPackedFlat: return "packed-flat";
  }
  return "?";
}

enum class Mutation {
  kDropEdge,
  kAddEdge,
  kRedirectEdge,
  kDuplicateEdge,
  kReclass,
  kFlipReporting,
  kMoveThreshold,
};
constexpr std::size_t kMutationKinds = 7;

/// One unmutated configuration: its network, the builder layouts the
/// try_compile overloads take, and its frame geometry.
struct Base {
  anml::AutomataNetwork network;
  std::vector<core::MacroLayout> macros;        ///< plain / multiplexed
  std::vector<core::PackedGroupLayout> groups;  ///< packed
  core::StreamSpec spec;
  std::size_t slices = 1;  ///< queries per frame
};

/// d and n in 3..8, collector fan-in 2..4; S = 2..4 slices or g = 2..4
/// vectors per packed group.
Base build_base(Shape shape, util::Rng& rng) {
  Base b;
  const std::size_t dims = 3 + rng.below(6);
  const auto data = test::random_dataset(rng, 3 + rng.below(6), dims);
  core::HammingMacroOptions macro;
  macro.collector_fan_in = 2 + rng.below(3);
  macro.max_counter_fan_in = 2 + rng.below(3);
  if (shape == Shape::kPlain) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      b.macros.push_back(core::append_hamming_macro(
          b.network, data.vector(i), static_cast<std::uint32_t>(i), macro));
    }
  } else if (shape == Shape::kMultiplexed) {
    b.slices = 2 + rng.below(3);
    b.macros =
        core::build_multiplexed_network(b.network, data, b.slices, macro);
  } else {
    core::VectorPackingOptions opt;
    opt.group_size = 2 + rng.below(3);
    opt.style = shape == Shape::kPackedTree ? core::CollectorStyle::kTree
                                            : core::CollectorStyle::kFlat;
    opt.macro = macro;
    b.groups = core::build_packed_network(b.network, data, opt);
  }
  b.spec = {dims, b.groups.empty() ? b.macros.front().collector_levels
                                   : b.groups.front().collector_levels};
  return b;
}

std::shared_ptr<const BatchProgram> compile(const Base& b,
                                            const anml::AutomataNetwork& net,
                                            std::string* reason) {
  return b.groups.empty()
             ? BatchProgram::try_compile(net, b.macros, {}, reason)
             : BatchProgram::try_compile(net, b.groups, {}, reason);
}

/// Whole query frames, each followed by a short run of random symbols
/// (control symbols, single- and multi-bit payloads, foreign bytes).
std::vector<std::uint8_t> mixed_stream(const Base& b, util::Rng& rng) {
  const std::uint8_t palette[] = {
      core::Alphabet::kSof,       core::Alphabet::kEof,
      core::Alphabet::kFill,      core::Alphabet::data_bit(false),
      core::Alphabet::data_bit(true), core::Alphabet::data(0x55),
      core::Alphabet::data(0x2a), 0x7f, 0xff};
  const core::SymbolStreamEncoder encoder(b.spec);
  std::vector<std::uint8_t> stream;
  for (int frame = 0; frame < 3; ++frame) {
    const auto queries = test::random_dataset(rng, b.slices, b.spec.dims);
    encoder.append_group(queries, 0, b.slices, stream);
    for (std::size_t run = rng.below(12); run > 0; --run) {
      stream.push_back(palette[rng.below(std::size(palette))]);
    }
  }
  return stream;
}

/// `base`'s elements with `edges` in place of its own.
anml::AutomataNetwork with_edges(const anml::AutomataNetwork& base,
                                 const std::vector<anml::Edge>& edges) {
  anml::AutomataNetwork net;
  for (const anml::Element& e : base.elements()) {
    net.element(net.add_ste(anml::SymbolSet::all())) = e;
  }
  for (const anml::Edge& e : edges) {
    net.connect(e.from, e.to, e.port);
  }
  return net;
}

/// Ids of `net`'s elements of `kind`.
std::vector<anml::ElementId> elements_of(const anml::AutomataNetwork& net,
                                         anml::ElementKind kind) {
  std::vector<anml::ElementId> ids;
  for (anml::ElementId id = 0; id < net.size(); ++id) {
    if (net.element(id).kind == kind) {
      ids.push_back(id);
    }
  }
  return ids;
}

/// `base` with one mutation of kind `m` applied at a random place.
anml::AutomataNetwork mutate(const anml::AutomataNetwork& base, Mutation m,
                             util::Rng& rng) {
  const auto any_element = [&] {
    return static_cast<anml::ElementId>(rng.below(base.size()));
  };
  std::vector<anml::Edge> edges = base.edges();
  const std::size_t pick = rng.below(edges.size());
  anml::AutomataNetwork net = base;
  switch (m) {
    case Mutation::kDropEdge:
      edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(pick));
      return with_edges(base, edges);
    case Mutation::kAddEdge: {
      const anml::ElementId to = any_element();
      anml::CounterPort port = anml::CounterPort::kCountEnable;
      if (base.element(to).kind == anml::ElementKind::kCounter) {
        const std::size_t r = rng.below(8);
        port = r < 3   ? anml::CounterPort::kReset
               : r < 4 ? anml::CounterPort::kThreshold
                       : anml::CounterPort::kCountEnable;
      }
      edges.push_back({any_element(), to, port});
      return with_edges(base, edges);
    }
    case Mutation::kRedirectEdge:
      (rng.bernoulli(0.5) ? edges[pick].from : edges[pick].to) = any_element();
      return with_edges(base, edges);
    case Mutation::kDuplicateEdge:
      edges.push_back(edges[pick]);
      return with_edges(base, edges);
    case Mutation::kReclass: {
      // Another class of the network, or a fresh single, all-but-one or
      // slice-ternary class.
      const auto stes = elements_of(base, anml::ElementKind::kSte);
      const auto sym = static_cast<std::uint8_t>(rng.below(256));
      anml::SymbolSet symbols =
          base.element(stes[rng.below(stes.size())]).symbols;
      switch (rng.below(4)) {
        case 0: symbols = anml::SymbolSet::single(sym); break;
        case 1: symbols = anml::SymbolSet::all_except(sym); break;
        case 2:
          symbols = anml::SymbolSet::ternary(
              sym, static_cast<std::uint8_t>(0x80u | (1u << rng.below(7))));
          break;
        default: break;
      }
      net.element(stes[rng.below(stes.size())]).symbols = symbols;
      return net;
    }
    case Mutation::kFlipReporting: {
      anml::Element& e = net.element(any_element());
      e.reporting = !e.reporting;
      return net;
    }
    case Mutation::kMoveThreshold: {
      const auto counters = elements_of(base, anml::ElementKind::kCounter);
      anml::Element& e = net.element(counters[rng.below(counters.size())]);
      e.threshold = rng.bernoulli(0.5) ? e.threshold + 1 : e.threshold - 1;
      return net;
    }
  }
  return net;
}

TEST(BatchCompileMutation, CompiledMutantsMatchTheReference) {
  constexpr std::size_t kBasesPerShape = 40;
  constexpr std::size_t kMutantsPerBase = 77;
  constexpr std::size_t kMinDistinctReasons = 18;
  util::Rng rng(18018);         // bases and mutations
  util::Rng stream_rng(18019);  // streams, so mutants never depend on them
  std::set<std::string> reasons;
  for (const Shape shape : kShapes) {
    std::size_t compiled = 0;
    std::size_t declined = 0;
    for (std::size_t base_index = 0; base_index < kBasesPerShape;
         ++base_index) {
      const Base b = build_base(shape, rng);
      std::string reason;
      ASSERT_NE(compile(b, b.network, &reason), nullptr)
          << shape_name(shape) << " base " << base_index << ": " << reason;
      for (std::size_t t = 0; t < kMutantsPerBase; ++t) {
        const auto m = static_cast<Mutation>(t % kMutationKinds);
        const anml::AutomataNetwork net = mutate(b.network, m, rng);
        reason.clear();
        const auto program = compile(b, net, &reason);
        if (program == nullptr) {
          ASSERT_FALSE(reason.empty());
          reasons.insert(reason);
          ++declined;
          continue;
        }
        ++compiled;
        const auto stream = mixed_stream(b, stream_rng);
        Simulator reference(net);
        BatchSimulator batch(program);
        ASSERT_EQ(batch.run(stream), reference.run(stream))
            << shape_name(shape) << " base " << base_index << " mutant " << t
            << " (mutation kind " << static_cast<int>(m) << ")";
      }
    }
    EXPECT_GT(compiled, 0u) << shape_name(shape);
    EXPECT_GT(declined, 0u) << shape_name(shape);
  }
  std::string seen;
  for (const std::string& r : reasons) {
    seen += "\n  " + r;
  }
  EXPECT_GE(reasons.size(), kMinDistinctReasons) << "reasons seen:" << seen;
}

}  // namespace
}  // namespace apss::apsim
