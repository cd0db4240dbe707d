// Table VI: statistical activation reduction accuracy — percentage of
// incorrect results out of 100 randomized runs, p = 16, n = 1024
// (Sec. VI-C). A "run" batches 4096 queries; a run is incorrect when ANY
// query's pooled top-k distance multiset misses the exact answer. The
// bench also reports the per-query failure rate and the achieved report-
// bandwidth reduction (~p/k').
//
// Usage: bench_table6_reduction [runs] [queries_per_run]  (defaults 100 4096;
// smoke runs pass small values — the percentages only converge at defaults)

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/opt/statistical_reduction.hpp"
#include "perf/workloads.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

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

}  // namespace

int main(int argc, char** argv) {
  using namespace apss;
  util::ThreadPool pool;
  std::size_t runs = 100, queries_per_run = 4096;
  if (argc > 1) runs = parse_positive(argv[1]);
  if (argc > 2) queries_per_run = parse_positive(argv[2]);
  if (runs == 0 || queries_per_run == 0) {
    std::cerr << "usage: bench_table6_reduction [runs] [queries_per_run]  "
                 "(positive integers; defaults 100 4096)\n";
    return 2;
  }

  util::BenchReport report("table6_reduction");
  util::TablePrinter table(
      "Table VI: % incorrect runs (" + std::to_string(runs) +
      " runs, p=16, n=1024)");
  table.set_header({"Workload", "k", "k'=1", "k'=2", "k'=3", "k'=4",
                    "paper k'=1", "paper k'=2", "paper k'=3"});
  util::TablePrinter detail("Per-query failure rate / reports per query");
  detail.set_header({"Workload", "k'=1", "k'=2", "k'=3", "k'=4",
                     "reports@k'=1", "full reports"});

  struct PaperRow {
    const char* name;
    double kp1, kp2, kp3;
  };
  const PaperRow paper_rows[] = {{"kNN-WordEmbed", 100, 1, 0},
                                 {"kNN-SIFT", 100, 1, 0},
                                 {"kNN-TagSpace", 100, 72, 5}};

  const std::size_t k_primes[] = {1, 2, 3, 4};
  for (const PaperRow& row : paper_rows) {
    const auto& w = perf::workload(row.name);
    core::ReductionModelParams params;
    params.n = 1024;
    params.dims = w.dims;
    params.group_size = 16;
    params.k = w.k;
    params.queries_per_run = queries_per_run;
    params.runs = runs;
    params.seed = 77;

    util::Timer timer;
    const auto results =
        core::evaluate_reduction_sweep(params, k_primes, &pool);
    std::cerr << "[" << w.name << "] sweep took "
              << util::TablePrinter::fmt(timer.seconds(), 1) << " s\n";
    for (std::size_t i = 0; i < std::size(k_primes); ++i) {
      report.write(
          util::BenchRecord("reduction_accuracy")
              .param("workload", w.name)
              .param("runs", static_cast<std::uint64_t>(runs))
              .param("queries_per_run",
                     static_cast<std::uint64_t>(queries_per_run))
              .param("k_prime", static_cast<std::uint64_t>(k_primes[i]))
              .param("incorrect_run_fraction",
                     results[i].incorrect_run_fraction)
              .param("incorrect_query_fraction",
                     results[i].incorrect_query_fraction)
              .param("mean_reports_per_query",
                     results[i].mean_reports_per_query)
              .wall_seconds(timer.seconds()));
    }

    const auto pct = [](double f) {
      return util::TablePrinter::fmt(f * 100.0, 0) + "%";
    };
    table.add_row({w.name, std::to_string(w.k),
                   pct(results[0].incorrect_run_fraction),
                   pct(results[1].incorrect_run_fraction),
                   pct(results[2].incorrect_run_fraction),
                   pct(results[3].incorrect_run_fraction),
                   util::TablePrinter::fmt(row.kp1, 0) + "%",
                   util::TablePrinter::fmt(row.kp2, 0) + "%",
                   util::TablePrinter::fmt(row.kp3, 0) + "%"});
    detail.add_row(
        {w.name,
         util::TablePrinter::fmt_auto(results[0].incorrect_query_fraction, 2),
         util::TablePrinter::fmt_auto(results[1].incorrect_query_fraction, 2),
         util::TablePrinter::fmt_auto(results[2].incorrect_query_fraction, 2),
         util::TablePrinter::fmt_auto(results[3].incorrect_query_fraction, 2),
         util::TablePrinter::fmt(results[0].mean_reports_per_query, 0),
         "1024"});
  }
  table.add_note("paper k'>=4 is 0% for all workloads; interpretation of a "
                 "'run' as a 4096-query batch reproduces the 100%-at-k'=1 "
                 "rows (a ~1%-per-query failure rate is certain to hit at "
                 "least once in 4096 queries).");
  table.print(std::cout);
  std::cout << '\n';
  detail.add_note("k'=1 cuts reports from 1024 to 64 per query: the 16x "
                  "(p/k') bandwidth reduction of Sec. VI-C.");
  detail.print(std::cout);
  if (report.ok()) {
    std::printf("\nrecorded -> %s\n", report.path().c_str());
  }
  return 0;
}
