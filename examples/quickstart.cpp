// Quickstart: the paper's Fig. 3 walked through end to end.
//
// Builds the Hamming + sorting macro for the vector {1,0,1,1}, streams the
// query {1,0,0,1}, prints the cycle-by-cycle activations (compare with
// Fig. 3 of the paper), and finishes with a small multi-vector search whose
// report ORDER demonstrates the temporally encoded sort of Fig. 4.

#include <cstdio>
#include <iostream>
#include <map>

#include "apsim/simulator.hpp"
#include "core/engine.hpp"
#include "core/hamming_macro.hpp"
#include "core/stream.hpp"
#include "core/temporal_decode.hpp"

namespace {

using namespace apss;

/// Renders one line per cycle: symbol, named active elements, count.
struct ConsoleTrace : apsim::TraceSink {
  const anml::AutomataNetwork* net = nullptr;
  anml::ElementId counter = anml::kInvalidElement;

  static const char* symbol_name(std::uint8_t s) {
    switch (s) {
      case core::Alphabet::kSof: return "SOF ";
      case core::Alphabet::kEof: return "EOF ";
      case core::Alphabet::kFill: return "FILL";
      case 0x00: return "'0' ";
      case 0x01: return "'1' ";
      default: return "?   ";
    }
  }

  void on_cycle(std::uint64_t cycle, std::uint8_t symbol,
                std::span<const anml::ElementId> active,
                const apsim::Simulator& sim) override {
    std::printf("  t=%2llu  %s  count=%llu  active: ",
                static_cast<unsigned long long>(cycle), symbol_name(symbol),
                static_cast<unsigned long long>(sim.counter_value(counter)));
    for (const anml::ElementId id : active) {
      std::printf("%s ", net->element(id).name.c_str());
    }
    std::printf("\n");
  }
};

}  // namespace

int main() {
  std::printf("== APSS quickstart: Fig. 3 of the paper ==\n\n");
  std::printf("Encoded vector {1,0,1,1}; query {1,0,0,1}; d=4.\n");
  std::printf("Expected: inverted Hamming distance 3, report at t=9.\n\n");

  // 1. Build the macro.
  anml::AutomataNetwork network("fig3");
  const core::MacroLayout layout = core::append_hamming_macro(
      network, util::BitVector::parse("1011"), /*report_code=*/0);
  const auto stats = network.stats();
  std::printf("Macro: %zu STEs, %zu counter(s), %zu reporting state(s)\n",
              stats.ste_count, stats.counter_count, stats.reporting_count);

  // 2. Encode the query stream (Fig. 2c: SOF, data, fillers, EOF).
  const core::StreamSpec spec{4, layout.collector_levels};
  const core::SymbolStreamEncoder encoder(spec);
  const auto stream = encoder.encode_query(util::BitVector::parse("1001"));
  std::printf("Stream frame: %zu symbols (2d+L+3)\n\n", stream.size());

  // 3. Simulate with a cycle trace.
  apsim::Simulator sim(network);
  ConsoleTrace trace;
  trace.net = &network;
  trace.counter = layout.counter;
  sim.set_trace(&trace);
  const auto events = sim.run(stream);
  std::printf("\nReport events:\n");
  for (const auto& e : events) {
    std::printf("  cycle %llu -> Hamming distance %zu\n",
                static_cast<unsigned long long>(e.cycle),
                spec.distance_from_offset(e.cycle));
  }

  // 4. Fig. 4: the temporal sort across multiple vectors.
  std::printf("\n== Fig. 4: temporally encoded sort ==\n");
  knn::BinaryDataset data(4, 4);
  data.set_vector(0, util::BitVector::parse("1011"));  // distance 1
  data.set_vector(1, util::BitVector::parse("0000"));  // distance 2
  data.set_vector(2, util::BitVector::parse("1001"));  // distance 0
  data.set_vector(3, util::BitVector::parse("1111"));  // distance 2

  core::ApKnnEngine engine(data);
  knn::BinaryDataset queries(1, 4);
  queries.set_vector(0, util::BitVector::parse("1001"));
  const auto results = engine.search(queries, 4);
  std::printf("Neighbors of query {1,0,0,1}, sorted by report time:\n");
  for (const auto& nb : results[0]) {
    std::printf("  vector %u at Hamming distance %u\n", nb.id, nb.distance);
  }
  std::printf(
      "\nThe closest vector reported FIRST: the sort happened on the\n"
      "device in O(d) cycles, not on the host (Sec. III-B).\n");
  return 0;
}
