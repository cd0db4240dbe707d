#pragma once
// Small helpers shared by the bench binaries: argument parsing and the
// raw-stream simulation-backend comparison harness used by the fig5
// (packed) and fig6 (multiplexed) benches.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "anml/network.hpp"
#include "apsim/batch_simulator.hpp"
#include "apsim/simulator.hpp"
#include "util/bench_report.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace apss::bench {

/// Strict positive decimal parse: rejects signs, suffixes ("1e3"), and
/// empty/garbage input by returning 0 (the caller's usage trigger).
inline std::size_t parse_positive(const char* s) {
  if (s == nullptr || *s < '0' || *s > '9') {
    return 0;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  return *end == '\0' ? static_cast<std::size_t>(v) : 0;
}

/// Warm bit-parallel runs whose median wall clock compare_backends_on_stream
/// records (bench_fig8_comparison times its searches the same way).
inline constexpr std::size_t kBitParallelReps = 31;
/// Cycle-accurate runs whose median wall clock it records: one run swings
/// by up to 3x with the host's load.
inline constexpr std::size_t kCycleAccurateReps = 3;

/// Runs `stream` kCycleAccurateReps times on the cycle-accurate reference
/// (each run's ReportEvent stream must equal the first) and takes their
/// median as the cycle-accurate wall clock. Then runs it on the compiled
/// bit-parallel `program`, asserts the streams are BIT-IDENTICAL, and times
/// kBitParallelReps more runs on the same BatchSimulator (each must match
/// too), whose median is the bit-parallel wall clock, so a cold first run
/// or one host stall sets neither. Prints a comparison table (with `note`),
/// and writes <prefix>_cycle_accurate / <prefix>_bit_parallel /
/// <prefix>_backend_speedup records — `stamp` adds the bench's parameters
/// to each. `shape` names the macro shape in the closing message.
/// Returns 0, or 1 when a run disagrees.
inline int compare_backends_on_stream(
    util::BenchReport& report, const std::string& prefix, const char* shape,
    const std::string& table_title, const char* note,
    const anml::AutomataNetwork& network,
    std::shared_ptr<const apsim::BatchProgram> program,
    std::span<const std::uint8_t> stream,
    const std::function<void(util::BenchRecord&)>& stamp) {
  apsim::Simulator reference(network);
  std::vector<apsim::ReportEvent> expected;
  std::vector<double> cycle_walls;
  bool identical = true;
  for (std::size_t rep = 0; identical && rep < kCycleAccurateReps; ++rep) {
    util::Timer cycle_timer;
    auto events = reference.run(stream);
    cycle_walls.push_back(cycle_timer.seconds());
    if (rep == 0) {
      expected = std::move(events);
    } else {
      identical = events == expected;
    }
  }
  if (!identical) {
    std::fprintf(stderr, "FAIL: cycle-accurate runs disagree\n");
    return 1;
  }
  const double cycle_wall = util::median(cycle_walls);

  apsim::BatchSimulator batch(program);
  std::vector<double> walls;
  identical = batch.run(stream) == expected;
  for (std::size_t rep = 0; identical && rep < kBitParallelReps; ++rep) {
    util::Timer bit_timer;
    const auto actual = batch.run(stream);
    walls.push_back(bit_timer.seconds());
    identical = actual == expected;
  }
  if (!identical) {
    std::fprintf(stderr, "FAIL: backends disagree on the report stream\n");
    return 1;
  }
  const double bit_wall = util::median(walls);
  const double speedup = bit_wall > 0.0 ? cycle_wall / bit_wall : 0.0;

  util::TablePrinter table(table_title);
  table.set_header({"backend", "wall s", "sim cycles", "report events"});
  const auto row = [&](const std::string& name, double wall) {
    table.add_row({name, util::TablePrinter::fmt(wall, 4),
                   std::to_string(stream.size()),
                   std::to_string(expected.size())});
    util::BenchRecord record(prefix + "_" + name);
    stamp(record);
    report.write(record.cycles(stream.size()).wall_seconds(wall));
  };
  row("cycle_accurate", cycle_wall);
  row("bit_parallel", bit_wall);
  table.add_note(note);
  table.add_note("wall s = median of " + std::to_string(kCycleAccurateReps) +
                 " cycle-accurate runs and of " +
                 std::to_string(kBitParallelReps) +
                 " warm bit-parallel runs, each on one simulator.");
  table.print(std::cout);

  util::BenchRecord speed(prefix + "_backend_speedup");
  stamp(speed);
  report.write(speed
                   .param("cycle_accurate_reps",
                          static_cast<std::uint64_t>(kCycleAccurateReps))
                   .param("bit_parallel_reps",
                          static_cast<std::uint64_t>(kBitParallelReps))
                   .param("speedup", speedup));
  std::printf("\nbit-parallel speedup on the %s shape: %.1fx wall-clock "
              "(target at default sizes: >= 50x)\n", shape, speedup);
  return 0;
}

}  // namespace apss::bench
