// Table VII: STE decomposition resource savings for x = 1..32 (Sec. VII-C),
// computed from the LUT-width analysis of REAL kNN macros under two
// alphabet assumptions (full 8-bit space = the paper's setting; restricted
// kNN alphabet = what an alphabet-aware synthesizer could reach).

#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "core/ext/ste_decomposition.hpp"
#include "core/hamming_macro.hpp"
#include "perf/workloads.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace apss;
  util::BenchReport report = bench::open_report("table7_decomposition");
  const std::size_t factors[] = {1, 2, 4, 8, 16, 32};

  struct PaperRow {
    const char* name;
    double savings[6];
  };
  const PaperRow paper_rows[] = {
      {"kNN-WordEmbed", {1.0, 1.98, 3.86, 7.38, 13.56, 23.34}},
      {"kNN-SIFT", {1.0, 1.99, 3.93, 7.67, 14.68, 27.00}},
      {"kNN-TagSpace", {1.0, 1.99, 3.96, 7.83, 15.31, 29.26}},
  };

  util::TablePrinter table("Table VII: STE decomposition savings (ours/paper)");
  table.set_header({"Workload", "x=1", "x=2", "x=4", "x=8", "x=16", "x=32"});

  util::TablePrinter widths("LUT-width histograms (full alphabet)");
  widths.set_header({"Workload", "STEs", "w=0", "w=1", "w=2", "w=3", "w=8"});

  for (const PaperRow& row : paper_rows) {
    const auto& w = perf::workload(row.name);
    anml::AutomataNetwork net;
    core::append_hamming_macro(net, util::BitVector(w.dims), 0);
    const auto full =
        core::analyze_ste_decomposition(net, anml::SymbolSet::all());
    const auto restricted =
        core::analyze_ste_decomposition(net, core::knn_alphabet());

    std::vector<std::string> cells = {w.name};
    for (std::size_t i = 0; i < 6; ++i) {
      cells.push_back(util::TablePrinter::fmt(full.savings(factors[i]), 2) +
                      "/" + util::TablePrinter::fmt(row.savings[i], 2));
      report.write(util::BenchRecord("decomposition_savings")
                       .param("workload", w.name)
                       .param("factor",
                              static_cast<std::uint64_t>(factors[i]))
                       .param("savings", full.savings(factors[i]))
                       .param("paper_savings", row.savings[i])
                       .param("restricted_savings",
                              restricted.savings(factors[i])));
    }
    table.add_row(cells);

    widths.add_row({w.name, std::to_string(full.total_stes),
                    std::to_string(full.width_histogram[0]),
                    std::to_string(full.width_histogram[1]),
                    std::to_string(full.width_histogram[2]),
                    std::to_string(full.width_histogram[3]),
                    std::to_string(full.width_histogram[8])});

    if (row.name == std::string("kNN-SIFT")) {
      std::cout << "restricted-alphabet upper bound for " << w.name
                << ": x=4 -> "
                << util::TablePrinter::fmt(restricted.savings(4), 2)
                << "x, x=32 -> "
                << util::TablePrinter::fmt(restricted.savings(32), 2)
                << "x (theoretical: 4x / 32x)\n\n";
    }
  }

  table.add_note("theoretical bound is x; the gap comes from the three "
                 "control states (SOF guard, ^EOF sort, EOF reset) that "
                 "need full 8-bit matches under arbitrary fillers.");
  table.print(std::cout);
  std::cout << '\n';
  widths.print(std::cout);
  if (report.ok()) {
    std::printf("\nrecorded -> %s\n", report.path().c_str());
  }
  return 0;
}
