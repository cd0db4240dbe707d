// Fig. 3: cycle-by-cycle execution of the example NFA (vector {1,0,1,1},
// query {1,0,0,1}). Prints the trace as a table whose rows can be checked
// against the figure, and exits nonzero if any checkpoint diverges.

#include <cstdio>
#include <iostream>
#include <map>
#include <set>

#include "apsim/simulator.hpp"
#include "bench_util.hpp"
#include "core/hamming_macro.hpp"
#include "core/stream.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace apss;

struct Capture : apsim::TraceSink {
  anml::ElementId counter;
  std::map<std::uint64_t, std::pair<std::set<anml::ElementId>, std::uint64_t>>
      by_cycle;
  void on_cycle(std::uint64_t cycle, std::uint8_t /*symbol*/,
                std::span<const anml::ElementId> active,
                const apsim::Simulator& sim) override {
    by_cycle[cycle] = {{active.begin(), active.end()},
                       sim.counter_value(counter)};
  }
};

}  // namespace

int main() {
  util::BenchReport report = bench::open_report("fig3_trace");
  util::Timer timer;
  anml::AutomataNetwork net;
  const core::MacroLayout layout =
      core::append_hamming_macro(net, util::BitVector::parse("1011"), 0);
  apsim::Simulator sim(net);
  Capture capture;
  capture.counter = layout.counter;
  sim.set_trace(&capture);
  const core::SymbolStreamEncoder enc(
      core::StreamSpec{4, layout.collector_levels});
  const auto events = sim.run(enc.encode_query(util::BitVector::parse("1001")));

  util::TablePrinter table("Fig. 3 trace: vector {1,0,1,1}, query {1,0,0,1}");
  table.set_header({"t", "symbol", "count(end)", "paper annotation"});
  const char* symbols[] = {"SOF", "1", "0", "0", "1", "^EOF", "^EOF",
                           "^EOF", "^EOF", "^EOF", "^EOF", "EOF"};
  const char* notes[] = {
      "start of file initiates NFA execution",
      "Vector[0] = Query[0] = 1",
      "Vector[1] = Query[1] = 0",
      "Vector[2] != Query[2]",
      "Vector[3] = Query[3] = 1",
      "flush remaining collector activations",
      "inverted Hamming distance is 3, begin temporal sort",
      "counter reaches threshold, emits pulse",
      "reporting state triggers",
      "",
      "",
      "end of file resets counter for next query"};
  for (std::uint64_t t = 1; t <= 12; ++t) {
    table.add_row({std::to_string(t), symbols[t - 1],
                   std::to_string(capture.by_cycle[t].second), notes[t - 1]});
  }
  table.print(std::cout);

  // Checkpoints from the figure.
  const std::uint64_t expected_counts[] = {0, 0, 1, 2, 2, 3, 4, 5, 6, 7, 8, 0};
  for (std::uint64_t t = 1; t <= 12; ++t) {
    if (capture.by_cycle[t].second != expected_counts[t - 1]) {
      std::fprintf(stderr, "FAIL: count at t=%llu is %llu, expected %llu\n",
                   static_cast<unsigned long long>(t),
                   static_cast<unsigned long long>(capture.by_cycle[t].second),
                   static_cast<unsigned long long>(expected_counts[t - 1]));
      return 1;
    }
  }
  if (events.size() != 1 || events[0].cycle != 9) {
    std::fprintf(stderr, "FAIL: expected a single report at t=9\n");
    return 1;
  }
  if (!capture.by_cycle[8].first.count(layout.counter) ||
      capture.by_cycle[7].first.count(layout.counter)) {
    std::fprintf(stderr, "FAIL: counter pulse must land exactly at t=8\n");
    return 1;
  }
  report.write(util::BenchRecord("trace_checkpoints")
                   .param("checkpoints", std::uint64_t{12})
                   .cycles(12)
                   .wall_seconds(timer.seconds()));
  std::printf("\nAll Fig. 3 checkpoints reproduced (pulse t=8, report t=9, "
              "reset t=12).\n");
  if (report.ok()) {
    std::printf("recorded -> %s\n", report.path().c_str());
  }
  return 0;
}
