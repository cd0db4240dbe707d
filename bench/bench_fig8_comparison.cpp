// Fig. 8 / Sec. VII-B: the dynamic-threshold comparison macro — an
// "if (A > B)" construct — plus the simulation-backend comparison for the
// paper's end-to-end kNN path: the same searches run on the cycle-accurate
// reference simulator and on the bit-parallel batch backend, with wall
// clock, simulated cycles, and modeled device time recorded to
// BENCH_fig8_comparison.json.
//
// The comparison is bench::compare_backends on the plain design (fig5 and
// fig6 run it on theirs). Its speedup divides one cold cycle-accurate
// search by the median of 31 warm bit-parallel searches, so one host stall
// during a ~30 us search cannot sink it.
//
// A thread-sweep section then re-runs the bit-parallel search with
// EngineOptions::threads in {2, 4, 8}, asserting bit-identical neighbor
// lists AND a bit-identical merged ReportEvent stream at every thread
// count, and records the scaling (knn_thread_sweep records). Each thread
// count is timed against the 1-thread engine in 101 bench::time_rounds
// rounds, the order reversing every round, and its speedup is the median
// per-round ratio (speedup_q1 ... speedup_max give their spread): a host
// speed swing then hits both searches of a round alike.
//
// Usage: bench_fig8_comparison [n] [dims] [queries]   (defaults 1024 128 32)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apsim/simulator.hpp"
#include "bench_util.hpp"
#include "core/engine.hpp"
#include "core/ext/comparison_macro.hpp"
#include "knn/dataset.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace apss;
using apss::bench::parse_positive;

constexpr std::size_t kK = 10;

int run_comparison_grid(util::BenchReport& report) {
  anml::AutomataNetwork net;
  core::append_comparison_macro(net, anml::SymbolSet::single('a'),
                                anml::SymbolSet::single('b'),
                                anml::SymbolSet::single('r'), 1);
  apsim::SimOptions opt;
  opt.allow_dynamic_threshold = true;

  util::TablePrinter table("Fig. 8: comparison macro truth grid");
  table.set_header({"#a \\ #b", "0", "1", "2", "3", "4"});
  std::size_t errors = 0;
  std::uint64_t cycles = 0;
  util::Timer timer;
  for (std::size_t na = 0; na <= 4; ++na) {
    std::vector<std::string> row = {std::to_string(na)};
    for (std::size_t nb = 0; nb <= 4; ++nb) {
      // Interleave b's first then a's, with settling padding: the macro
      // fires iff the final counts satisfy a > b.
      std::string stream(nb, 'b');
      stream += std::string(na, 'a');
      stream += "....";  // settle + report propagation
      apsim::Simulator sim(net, opt);
      const std::vector<std::uint8_t> bytes(stream.begin(), stream.end());
      const bool fired = !sim.run(bytes).empty();
      cycles += bytes.size();
      const bool expected = na > nb;
      if (fired != expected) {
        ++errors;
      }
      row.push_back(fired ? "FIRE" : ".");
    }
    table.add_row(row);
  }
  report.write(util::BenchRecord("comparison_grid")
                   .param("grid_cells", std::uint64_t{25})
                   .cycles(cycles)
                   .wall_seconds(timer.seconds()));
  table.add_note("expected: FIRE strictly below the diagonal (#a > #b).");
  table.print(std::cout);
  if (errors != 0) {
    std::fprintf(stderr, "FAIL: %zu grid cells diverged\n", errors);
    return 1;
  }
  std::printf("\nAll 25 grid cells match the A > B predicate.\n\n");
  return 0;
}

int run_backend_comparison(util::BenchReport& report, std::size_t n,
                           std::size_t dims, std::size_t queries_n) {
  return bench::compare_backends(
      report, "knn", "Simulated-AP backend comparison (same searches)",
      "plain design; speedup = wall(cycle) / median wall(bit), CI gate at "
      "default sizes: >= 700x.",
      knn::BinaryDataset::uniform(n, dims, 97),
      knn::BinaryDataset::uniform(queries_n, dims, 98), kK,
      core::EngineOptions{}, 1);
}

int run_thread_sweep(util::BenchReport& report, std::size_t n,
                     std::size_t dims, std::size_t queries_n) {
  const auto data = knn::BinaryDataset::uniform(n, dims, 97);
  const auto queries = knn::BinaryDataset::uniform(queries_n, dims, 98);

  // Fixed sweep (not capped at hardware_concurrency): correctness must
  // hold even oversubscribed, and the scaling rows are meaningful wherever
  // the snapshot was recorded.
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  constexpr std::size_t kRounds = 101;
  const auto make_engine = [&](std::size_t threads) {
    core::EngineOptions opt;
    opt.backend = core::SimulationBackend::kBitParallel;
    opt.threads = threads;
    opt.collect_report_stream = true;
    return std::make_unique<core::ApKnnEngine>(data, opt);
  };
  const auto one = make_engine(1);
  auto base_results = one->search(queries, kK);
  const std::vector<apsim::ReportEvent> base_stream =
      one->last_report_stream();

  util::TablePrinter table(
      "Bit-parallel thread sweep (configuration/frame shards, " +
      std::to_string(hw) + " hardware threads, medians over " +
      std::to_string(kRounds) + " alternating rounds)");
  table.set_header({"threads", "wall s", "speedup", "stream events"});
  const auto record = [&](std::size_t t, const std::vector<double>& walls,
                          const std::vector<double>& speedups) {
    const bench::Spread wall = bench::spread_of(walls);
    const bench::Spread speedup = bench::spread_of(speedups);
    table.add_row({std::to_string(t), bench::fmt("%.3g", wall.median),
                   util::TablePrinter::fmt(speedup.median, 2),
                   std::to_string(base_stream.size())});
    util::BenchRecord rec("knn_thread_sweep");
    rec.param("n", static_cast<std::uint64_t>(n))
        .param("dims", static_cast<std::uint64_t>(dims))
        .param("queries", static_cast<std::uint64_t>(queries_n))
        .param("threads", static_cast<std::uint64_t>(t))
        .param("hardware_threads", static_cast<std::uint64_t>(hw))
        .param("rounds", static_cast<std::uint64_t>(kRounds))
        .param("speedup_vs_1_thread", speedup.median);
    bench::with_spread(rec, speedup, "speedup_");
    report.write(bench::with_spread(rec, wall).wall_seconds(wall.median));
  };
  struct Row {
    std::size_t threads;
    std::vector<double> walls;
    std::vector<double> speedups;
  };
  std::vector<Row> rows;
  std::vector<double> one_walls;
  std::size_t errors = 0;
  for (const std::size_t t : {2, 4, 8}) {
    const auto many = make_engine(t);
    if (many->search(queries, kK) != base_results ||
        many->last_report_stream() != base_stream) {
      std::fprintf(stderr,
                   "FAIL: threads=%zu diverged from the single-threaded "
                   "reference (results or merged report stream)\n", t);
      ++errors;
      continue;
    }
    const auto walls = bench::time_rounds(
        {[&] {
           return bench::timed_search(*one, queries, kK, base_results, errors);
         },
         [&] {
           return bench::timed_search(*many, queries, kK, base_results,
                                      errors);
         }},
        kRounds);
    one_walls.insert(one_walls.end(), walls[0].begin(), walls[0].end());
    rows.push_back({t, walls[1], bench::round_ratios(walls[0], walls[1])});
  }
  if (errors != 0) {
    std::fprintf(stderr, "FAIL: %zu thread-sweep searches diverged\n", errors);
    return 1;
  }
  record(1, one_walls, {1.0});
  for (const Row& row : rows) {
    record(row.threads, row.walls, row.speedups);
  }
  table.add_note("identical neighbor lists and merged ReportEvent stream at "
                 "every thread count; speedup = median over rounds of "
                 "wall(1 thread) / wall(t), the two timed back to back in "
                 "alternating order.");
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  std::size_t n = 1024, dims = 128, queries = 32;
  if (argc > 1) n = parse_positive(argv[1]);
  if (argc > 2) dims = parse_positive(argv[2]);
  if (argc > 3) queries = parse_positive(argv[3]);
  if (n == 0 || dims == 0 || queries == 0) {
    std::fprintf(stderr,
                 "usage: bench_fig8_comparison [n] [dims] [queries]  "
                 "(positive integers; defaults 1024 128 32)\n");
    return 2;
  }

  util::BenchReport report = bench::open_report("fig8_comparison");
  const int grid_rc = run_comparison_grid(report);
  const int backend_rc = run_backend_comparison(report, n, dims, queries);
  const int sweep_rc = run_thread_sweep(report, n, dims, queries);
  if (report.ok()) {
    std::printf("\nrecorded -> %s\n", report.path().c_str());
  }
  if (grid_rc != 0) return grid_rc;
  if (backend_rc != 0) return backend_rc;
  return sweep_rc;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "error: %s\n", ex.what());
  return 1;
}
