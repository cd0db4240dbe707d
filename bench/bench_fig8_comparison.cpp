// Fig. 8 / Sec. VII-B: the dynamic-threshold comparison macro — an
// "if (A > B)" construct — plus the simulation-backend comparison for the
// paper's end-to-end kNN path: the same searches run on the cycle-accurate
// reference simulator and on the bit-parallel batch backend, with wall
// clock, simulated cycles, and modeled device time recorded to
// BENCH_fig8_comparison.json.
//
// The backend speedup divides one cycle-accurate search by the median of
// repeated warm bit-parallel searches, so one host stall during a ~0.2 ms
// search cannot sink it.
//
// A thread-sweep section then re-runs the bit-parallel search with
// EngineOptions::threads in {2, 4, 8}, asserting bit-identical neighbor
// lists AND a bit-identical merged ReportEvent stream at every thread
// count, and records the scaling (knn_thread_sweep records). Each thread
// count is timed against the 1-thread engine in alternating rounds, the
// order reversing every round as bench_robustness does, and its speedup is
// the median per-round ratio: a host speed swing then hits both searches
// of a round alike instead of reading as a scale-out change.
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
#include "core/engine.hpp"
#include "core/ext/comparison_macro.hpp"
#include "knn/dataset.hpp"
#include "util/bench_report.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace apss;

/// Strict positive decimal parse: rejects signs, suffixes ("1e3"), and
/// empty/garbage input by returning 0 (the caller's usage trigger).
std::size_t parse_positive(const char* s) {
  if (s == nullptr || *s < '0' || *s > '9') {
    return 0;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  return *end == '\0' ? static_cast<std::size_t>(v) : 0;
}

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

/// Wall clock of one search; counts an answer that differs from
/// `expected` in `errors`.
double timed_search(core::ApKnnEngine& engine,
                    const knn::BinaryDataset& queries, std::size_t k,
                    const std::vector<std::vector<knn::Neighbor>>& expected,
                    std::size_t& errors) {
  util::Timer timer;
  const auto results = engine.search(queries, k);
  const double wall = timer.seconds();
  errors += results != expected;
  return wall;
}

struct BackendRun {
  double wall_seconds = 0.0;
  std::vector<std::vector<knn::Neighbor>> results;
  core::EngineStats stats;
};

/// The first search on a fresh engine, then (when `warm_reps` > 0) its
/// median wall clock over that many further searches.
BackendRun run_backend(const knn::BinaryDataset& data,
                       const knn::BinaryDataset& queries, std::size_t k,
                       core::SimulationBackend backend,
                       std::size_t warm_reps) {
  core::EngineOptions opt;
  opt.backend = backend;
  core::ApKnnEngine engine(data, opt);
  util::Timer timer;
  BackendRun r;
  r.results = engine.search(queries, k);
  r.wall_seconds = timer.seconds();
  r.stats = engine.last_stats();
  if (warm_reps > 0) {
    std::vector<double> walls;
    std::size_t errors = 0;
    for (std::size_t rep = 0; rep < warm_reps; ++rep) {
      walls.push_back(timed_search(engine, queries, k, r.results, errors));
    }
    r.wall_seconds = errors == 0 ? util::median(walls) : 0.0;
  }
  return r;
}

int run_backend_comparison(util::BenchReport& report, std::size_t n,
                           std::size_t dims, std::size_t queries_n) {
  const std::size_t k = 10;
  const auto data = knn::BinaryDataset::uniform(n, dims, 97);
  const auto queries = knn::BinaryDataset::uniform(queries_n, dims, 98);
  const apsim::DeviceTiming timing = apsim::DeviceConfig::gen1().timing;

  constexpr std::size_t kWarmReps = 31;
  const BackendRun cycle = run_backend(
      data, queries, k, core::SimulationBackend::kCycleAccurate, 0);
  const BackendRun bit = run_backend(
      data, queries, k, core::SimulationBackend::kBitParallel, kWarmReps);

  if (cycle.results != bit.results || bit.wall_seconds == 0.0 ||
      !cycle.stats.same_work(bit.stats)) {
    std::fprintf(stderr,
                 "FAIL: backends disagree on results or EngineStats\n");
    return 1;
  }
  if (bit.stats.backend.fallback != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu configurations fell back to the cycle-accurate "
                 "simulator (first reason: %s)\n",
                 bit.stats.backend.fallback,
                 bit.stats.backend.fallback_reasons.front().first.c_str());
    return 1;
  }
  const double speedup = bit.wall_seconds > 0.0
                             ? cycle.wall_seconds / bit.wall_seconds
                             : 0.0;

  util::TablePrinter table("Simulated-AP backend comparison (same searches)");
  table.set_header({"backend", "wall s", "sim cycles", "device model s"});
  const auto row = [&](const char* name, const BackendRun& r) {
    table.add_row({name, util::TablePrinter::fmt(r.wall_seconds, 4),
                   std::to_string(r.stats.simulated_cycles),
                   util::TablePrinter::fmt(r.stats.total_seconds(timing), 5)});
    report.write(
        util::BenchRecord(std::string("knn_") + name)
            .param("n", static_cast<std::uint64_t>(n))
            .param("dims", static_cast<std::uint64_t>(dims))
            .param("queries", static_cast<std::uint64_t>(queries_n))
            .param("k", static_cast<std::uint64_t>(k))
            .cycles(static_cast<std::uint64_t>(r.stats.simulated_cycles))
            .wall_seconds(r.wall_seconds)
            .model_seconds(r.stats.total_seconds(timing)));
  };
  row("cycle_accurate", cycle);
  row("bit_parallel", bit);
  table.add_note("identical neighbor lists and EngineStats from both "
                 "backends; speedup = wall(cycle) / median wall(bit) over " +
                 std::to_string(kWarmReps) + " warm searches.");
  table.print(std::cout);
  report.write(util::BenchRecord("knn_backend_speedup")
                   .param("n", static_cast<std::uint64_t>(n))
                   .param("dims", static_cast<std::uint64_t>(dims))
                   .param("queries", static_cast<std::uint64_t>(queries_n))
                   .param("bit_parallel_reps",
                          static_cast<std::uint64_t>(kWarmReps))
                   .param("speedup", speedup));
  std::printf("\nbit-parallel speedup: %.1fx wall-clock "
              "(CI gate at default sizes: >= 700x)\n", speedup);
  return 0;
}

int run_thread_sweep(util::BenchReport& report, std::size_t n,
                     std::size_t dims, std::size_t queries_n) {
  const std::size_t k = 10;
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
  const auto base_results = one->search(queries, k);
  const std::vector<apsim::ReportEvent> base_stream =
      one->last_report_stream();

  util::TablePrinter table(
      "Bit-parallel thread sweep (configuration/frame shards, " +
      std::to_string(hw) + " hardware threads, medians over " +
      std::to_string(kRounds) + " alternating rounds)");
  table.set_header({"threads", "wall s", "speedup", "stream events"});
  const auto record = [&](std::size_t t, double wall, double speedup) {
    table.add_row({std::to_string(t), util::TablePrinter::fmt(wall, 4),
                   util::TablePrinter::fmt(speedup, 2),
                   std::to_string(base_stream.size())});
    report.write(util::BenchRecord("knn_thread_sweep")
                     .param("n", static_cast<std::uint64_t>(n))
                     .param("dims", static_cast<std::uint64_t>(dims))
                     .param("queries", static_cast<std::uint64_t>(queries_n))
                     .param("threads", static_cast<std::uint64_t>(t))
                     .param("hardware_threads", static_cast<std::uint64_t>(hw))
                     .param("rounds", static_cast<std::uint64_t>(kRounds))
                     .param("speedup_vs_1_thread", speedup)
                     .wall_seconds(wall));
  };
  struct Row {
    std::size_t threads;
    double wall;
    double speedup;
  };
  std::vector<Row> rows;
  std::vector<double> one_walls;
  std::size_t errors = 0;
  for (const std::size_t t : {2, 4, 8}) {
    const auto many = make_engine(t);
    if (many->search(queries, k) != base_results ||
        many->last_report_stream() != base_stream) {
      std::fprintf(stderr,
                   "FAIL: threads=%zu diverged from the single-threaded "
                   "reference (results or merged report stream)\n", t);
      ++errors;
      continue;
    }
    std::vector<double> walls;
    std::vector<double> ratios;
    for (std::size_t round = 0; round < kRounds; ++round) {
      double one_wall = 0.0;
      double many_wall = 0.0;
      if (round % 2 == 0) {
        one_wall = timed_search(*one, queries, k, base_results, errors);
        many_wall = timed_search(*many, queries, k, base_results, errors);
      } else {
        many_wall = timed_search(*many, queries, k, base_results, errors);
        one_wall = timed_search(*one, queries, k, base_results, errors);
      }
      one_walls.push_back(one_wall);
      walls.push_back(many_wall);
      ratios.push_back(one_wall / many_wall);
    }
    rows.push_back({t, util::median(walls), util::median(ratios)});
  }
  if (errors != 0) {
    std::fprintf(stderr, "FAIL: %zu thread-sweep searches diverged\n", errors);
    return 1;
  }
  record(1, util::median(one_walls), 1.0);
  for (const Row& row : rows) {
    record(row.threads, row.wall, row.speedup);
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

  util::BenchReport report("fig8_comparison");
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
