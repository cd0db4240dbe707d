// Table VIII: total compounded potential performance gains from the
// Sec. VI optimizations and Sec. VII extensions, with every factor
// computed from this repo's own models (vector packing from real packed
// networks; STE decomposition from the LUT-width analysis; counter
// increment from the dense-frame arithmetic).

#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "perf/projection.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace apss;
  util::BenchReport report = bench::open_report("table8_compound");

  struct PaperRow {
    const char* name;
    double packing, decomp, total;
  };
  const PaperRow paper_rows[] = {
      {"kNN-WordEmbed", 2.93, 3.86, 63.14},
      {"kNN-SIFT", 3.28, 3.93, 71.96},
      {"kNN-TagSpace", 3.31, 3.96, 73.17},
  };

  util::TablePrinter table("Table VIII: compounded Opt+Ext gains (ours/paper)");
  table.set_header({"Factor", "kNN-WordEmbed", "kNN-SIFT", "kNN-TagSpace"});

  std::vector<perf::CompoundGains> gains;
  for (const PaperRow& row : paper_rows) {
    gains.push_back(perf::compound_gains(perf::workload(row.name)));
    const perf::CompoundGains& g = gains.back();
    report.write(util::BenchRecord("compound_gains")
                     .param("workload", row.name)
                     .param("tech_scaling", g.tech_scaling)
                     .param("vector_packing", g.vector_packing)
                     .param("ste_decomposition", g.ste_decomposition)
                     .param("counter_increment", g.counter_increment)
                     .param("total", g.total())
                     .param("energy_total", g.energy_total())
                     .param("paper_total", row.total));
  }

  const auto fmt2 = [](double v) { return util::TablePrinter::fmt(v, 2); };
  table.add_row({"Technology Scaling", fmt2(gains[0].tech_scaling) + "/3.19",
                 fmt2(gains[1].tech_scaling) + "/3.19",
                 fmt2(gains[2].tech_scaling) + "/3.19"});
  table.add_row({"Vector Packing (g=4)",
                 fmt2(gains[0].vector_packing) + "/" + fmt2(paper_rows[0].packing),
                 fmt2(gains[1].vector_packing) + "/" + fmt2(paper_rows[1].packing),
                 fmt2(gains[2].vector_packing) + "/" + fmt2(paper_rows[2].packing)});
  table.add_row({"STE Decomposition (x=4)",
                 fmt2(gains[0].ste_decomposition) + "/" + fmt2(paper_rows[0].decomp),
                 fmt2(gains[1].ste_decomposition) + "/" + fmt2(paper_rows[1].decomp),
                 fmt2(gains[2].ste_decomposition) + "/" + fmt2(paper_rows[2].decomp)});
  table.add_row({"Counter Increment Ext.",
                 fmt2(gains[0].counter_increment) + "/1.75",
                 fmt2(gains[1].counter_increment) + "/1.75",
                 fmt2(gains[2].counter_increment) + "/1.75"});
  table.add_separator();
  table.add_row({"Total Improvement",
                 fmt2(gains[0].total()) + "/" + fmt2(paper_rows[0].total),
                 fmt2(gains[1].total()) + "/" + fmt2(paper_rows[1].total),
                 fmt2(gains[2].total()) + "/" + fmt2(paper_rows[2].total)});
  table.add_row({"Energy Improvement",
                 fmt2(gains[0].energy_total()) + "/19.8",
                 fmt2(gains[1].energy_total()) + "/22.6",
                 fmt2(gains[2].energy_total()) + "/23.2"});
  table.add_note("our packing factor is measured from real packed networks "
                 "(shared guard/chain/sort) and is slightly more "
                 "conservative than the paper's analytical model.");
  table.print(std::cout);
  if (report.ok()) {
    std::printf("\nrecorded -> %s\n", report.path().c_str());
  }
  return 0;
}
