#pragma once
// Small helpers shared by the bench binaries: argument parsing, the report
// every bench opens (its first record names the machine), the one routine
// that repeats timed arms (time_rounds) with the spread every timed record
// carries, and the engine-level simulation-backend comparison that
// bench_fig5_vector_packing, bench_fig6_multiplexing and
// bench_fig8_comparison run on their designs.

#include <sched.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apsim/lane_word.hpp"
#include "core/engine.hpp"
#include "knn/dataset.hpp"
#include "util/bench_report.hpp"
#include "util/rng.hpp"
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

/// printf-formats one number, for table cells.
inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

/// n x dims uniform bits drawn row by row from `rng`.
inline knn::BinaryDataset random_dataset(util::Rng& rng, std::size_t n,
                                         std::size_t dims) {
  knn::BinaryDataset data(n, dims);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dims; ++d) {
      data.set(i, d, rng.below(2) == 1);
    }
  }
  return data;
}

/// Opens BENCH_<name>.json with its `context` record: the hardware
/// threads, the CPUs this process may run on (`nproc`), the build type
/// (APSS_BUILD_TYPE, which the build defines), the compiler and the
/// match-count kernel closed-form frames run.
inline util::BenchReport open_report(const std::string& name) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const std::size_t nproc =
      sched_getaffinity(0, sizeof(cpus), &cpus) == 0
          ? static_cast<std::size_t>(CPU_COUNT(&cpus))
          : 0;
#ifdef __clang__
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  util::BenchReport report(name);
  report.write(
      util::BenchRecord("context")
          .param("hardware_threads",
                 static_cast<std::uint64_t>(
                     std::thread::hardware_concurrency()))
          .param("nproc", static_cast<std::uint64_t>(nproc))
          .param("build_type", APSS_BUILD_TYPE)
          .param("compiler", compiler)
          .param("match_count_isa", apsim::resolve_match_counts().isa));
  return report;
}

/// Times `arms` in `rounds` rounds: round r runs them in order when r is
/// even and in reverse when r is odd, so a host speed swing hits every arm
/// of a round alike. Each arm times its own region and returns its wall
/// seconds; samples[a][r] is arm a's in round r. A round's samples are
/// appended after its last arm, so nothing is allocated between two timed
/// arms, and the table is never sized up front: the allocations around the
/// timed searches set the heap layout they run in, and bench_robustness's
/// gated ratios move with it (docs/OPTIMIZATIONS.md, "The match-count
/// kernel").
inline std::vector<std::vector<double>> time_rounds(
    const std::vector<std::function<double()>>& arms, std::size_t rounds) {
  std::vector<std::vector<double>> samples(arms.size());
  std::vector<double> round_walls(arms.size());
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const std::size_t a = round % 2 == 0 ? i : arms.size() - 1 - i;
      round_walls[a] = arms[a]();
    }
    for (std::size_t a = 0; a < arms.size(); ++a) {
      samples[a].push_back(round_walls[a]);
    }
  }
  return samples;
}

/// num[r] / den[r] for every round r of two arms of one time_rounds() call.
inline std::vector<double> round_ratios(std::span<const double> num,
                                        std::span<const double> den) {
  std::vector<double> ratios;
  for (std::size_t r = 0; r < num.size(); ++r) {
    ratios.push_back(num[r] / den[r]);
  }
  return ratios;
}

/// Median, quartiles and extremes of one arm's samples (or ratios).
struct Spread {
  std::size_t reps = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Throws std::invalid_argument on no samples (util::percentile).
inline Spread spread_of(std::span<const double> samples) {
  const double median = util::median(samples);
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  return {samples.size(), median, util::percentile(samples, 25),
          util::percentile(samples, 75), *lo, *hi};
}

/// Adds `s` to `record`: with no prefix, `reps` and the samples' q1, q3,
/// min and max (in the unit of the record's wall_seconds); with one, the
/// same four statistics of a derived quantity, e.g. "speedup_q1".
inline util::BenchRecord& with_spread(util::BenchRecord& record,
                                      const Spread& s,
                                      const std::string& prefix = "") {
  if (prefix.empty()) {
    record.param("reps", static_cast<std::uint64_t>(s.reps));
  }
  return record.param(prefix + "q1", s.q1)
      .param(prefix + "q3", s.q3)
      .param(prefix + "min", s.min)
      .param(prefix + "max", s.max);
}

/// Wall seconds of one engine.search(queries, k). The answer becomes
/// `expected` when that is empty; otherwise an answer that differs from it
/// counts in `mismatches`.
inline double timed_search(core::ApKnnEngine& engine,
                           const knn::BinaryDataset& queries, std::size_t k,
                           std::vector<std::vector<knn::Neighbor>>& expected,
                           std::size_t& mismatches) {
  util::Timer timer;
  auto results = engine.search(queries, k);
  const double wall = timer.seconds();
  if (expected.empty()) {
    expected = std::move(results);
  } else {
    mismatches += results != expected;
  }
  return wall;
}

/// Runs one kNN search of `queries` on both simulation backends of the
/// `design` engine. A fresh cycle-accurate engine times its first
/// `cycle_reps` searches (the first of them cold); only then does a fresh
/// bit-parallel engine run one untimed search and 31 timed ones. Each
/// backend's wall clock is its searches' median. Prints a table (with
/// `note`) and writes <prefix>_cycle_accurate, <prefix>_bit_parallel and
/// <prefix>_backend_speedup records. Returns 0 only when every search
/// returns the first one's neighbors, both backends do the same device
/// work (EngineStats::same_work), no configuration fell back to the
/// cycle-accurate simulator, and one untimed collect_report_stream search
/// per backend emits bit-identical ReportEvent streams; else 1.
inline int compare_backends(util::BenchReport& report,
                            const std::string& prefix,
                            const std::string& title, const std::string& note,
                            const knn::BinaryDataset& data,
                            const knn::BinaryDataset& queries, std::size_t k,
                            core::EngineOptions design,
                            std::size_t cycle_reps) {
  constexpr std::size_t kBitParallelReps = 31;
  std::vector<std::vector<knn::Neighbor>> expected;
  std::size_t mismatches = 0;

  std::vector<double> cycle_walls;
  core::EngineStats cycle_stats;
  {
    design.backend = core::SimulationBackend::kCycleAccurate;
    core::ApKnnEngine cycle(data, design);
    cycle_walls = time_rounds({[&] {
                                return timed_search(cycle, queries, k,
                                                    expected, mismatches);
                              }},
                              cycle_reps)[0];
    cycle_stats = cycle.last_stats();
  }  // freed before the bit-parallel engine is built

  design.backend = core::SimulationBackend::kBitParallel;
  core::ApKnnEngine bit(data, design);
  timed_search(bit, queries, k, expected, mismatches);
  const std::vector<double> bit_walls = time_rounds(
      {[&] { return timed_search(bit, queries, k, expected, mismatches); }},
      kBitParallelReps)[0];

  std::vector<std::vector<apsim::ReportEvent>> streams;
  for (const auto backend : {core::SimulationBackend::kCycleAccurate,
                             core::SimulationBackend::kBitParallel}) {
    core::EngineOptions collect = design;
    collect.backend = backend;
    collect.collect_report_stream = true;
    core::ApKnnEngine engine(data, collect);
    mismatches += engine.search(queries, k) != expected;
    streams.push_back(engine.last_report_stream());
  }

  const core::EngineStats& stats = bit.last_stats();
  const std::size_t fallback = bit.backend_stats().fallback;
  if (mismatches != 0 || !cycle_stats.same_work(stats) || fallback != 0 ||
      streams[0] != streams[1]) {
    std::fprintf(stderr,
                 "FAIL: %s backends disagree: %zu searches with other "
                 "neighbors, same_work %d, %zu configurations fell back, "
                 "collected streams %s\n",
                 prefix.c_str(), mismatches, cycle_stats.same_work(stats),
                 fallback, streams[0] == streams[1] ? "equal" : "differ");
    return 1;
  }

  const Spread cycle_wall = spread_of(cycle_walls);
  const Spread bit_wall = spread_of(bit_walls);
  const double model_seconds = stats.total_seconds(design.device.timing);
  const auto stamp = [&](const std::string& name) {
    util::BenchRecord record(prefix + "_" + name);
    record.param("n", static_cast<std::uint64_t>(data.size()))
        .param("dims", static_cast<std::uint64_t>(data.dims()))
        .param("queries", static_cast<std::uint64_t>(queries.size()))
        .param("k", static_cast<std::uint64_t>(k))
        .param("group", static_cast<std::uint64_t>(design.packing_group_size))
        .param("slices", static_cast<std::uint64_t>(design.multiplex_slices));
    return record;
  };

  util::TablePrinter table(title);
  table.set_header({"backend", "wall s", "sim cycles", "report events",
                    "device model s"});
  for (const auto& [name, wall] : {std::pair{"cycle_accurate", cycle_wall},
                                   std::pair{"bit_parallel", bit_wall}}) {
    table.add_row({name, fmt("%.3g", wall.median),
                   std::to_string(stats.simulated_cycles),
                   std::to_string(stats.report_events),
                   fmt("%.3g", model_seconds)});
    util::BenchRecord record = stamp(name);
    report.write(with_spread(record, wall)
                     .cycles(stats.simulated_cycles)
                     .wall_seconds(wall.median)
                     .model_seconds(model_seconds));
  }
  table.add_note(note);
  table.add_note("identical neighbors, device work and collected streams "
                 "from both backends; wall s = median of " +
                 std::to_string(cycle_reps) +
                 " cycle-accurate searches (the first cold) and of " +
                 std::to_string(kBitParallelReps) +
                 " warm bit-parallel searches, each on one engine.");
  table.print(std::cout);

  const double speedup =
      bit_wall.median > 0.0 ? cycle_wall.median / bit_wall.median : 0.0;
  report.write(stamp("backend_speedup")
                   .param("cycle_accurate_reps",
                          static_cast<std::uint64_t>(cycle_reps))
                   .param("bit_parallel_reps",
                          static_cast<std::uint64_t>(kBitParallelReps))
                   .param("speedup", speedup));
  std::printf("\nbit-parallel speedup: %.1fx wall-clock\n", speedup);
  return 0;
}

}  // namespace apss::bench
