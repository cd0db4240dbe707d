// Ablation: query-frame design vs device throughput.
//
// Tables III/IV of the paper imply d cycles/query; the paper's text says
// 2d; our faithful stream frame is 2d+L+3. This bench compares three
// CONSTRUCTIBLE designs plus the paper's convention, including their area
// cost, and validates each design's results against CPU exact kNN in-run:
//
//   base frame        2d+L+3 cycles/query, 1x area
//   interleaved       d+1 cycles/query, 2x area (parity halves share the
//                     stream; the next query's data doubles as fillers)
//   counter-increment ceil(d/7)+d+4 cycles/query, ~1x area, needs the
//                     Sec. VII-A multi-increment extension
//   paper convention  d cycles/query (not directly constructible)

#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "core/ext/counter_increment.hpp"
#include "core/opt/interleaved.hpp"
#include "knn/exact.hpp"
#include "perf/workloads.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace apss;
  util::BenchReport report = bench::open_report("ablation_interleaved");

  // Correctness gate for both alternative designs.
  const auto data = knn::BinaryDataset::uniform(24, 32, 11);
  const auto queries = knn::BinaryDataset::uniform(9, 32, 12);
  const auto il = core::interleaved_knn_search(data, queries, 4);
  const auto ci = core::ci_knn_search(data, queries, 4);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto exact = knn::knn_scan(data, queries.row(q), 4);
    if (il[q] != exact || ci[q] != exact) {
      std::cerr << "ablation: design validation FAILED\n";
      return 1;
    }
  }

  util::TablePrinter table("Frame-design ablation (cycles per query / area)");
  table.set_header({"Workload", "base frame", "interleaved", "ctr-increment",
                    "paper conv.", "interleaved speedup", "area cost"});
  for (const auto& w : perf::paper_workloads()) {
    const core::StreamSpec base{w.dims, 1};
    const core::InterleavedSpec inter{w.dims};
    const core::CiStreamSpec dense{w.dims};
    table.add_row({w.name, std::to_string(base.cycles_per_query()),
                   std::to_string(inter.cycles_per_query()),
                   std::to_string(dense.cycles_per_query()),
                   std::to_string(w.dims),
                   util::TablePrinter::fmt(inter.speedup_vs_base(), 2) + "x",
                   "2x STEs"});
    report.write(
        util::BenchRecord("frame_design")
            .param("workload", w.name)
            .param("dims", static_cast<std::uint64_t>(w.dims))
            .param("base_cycles",
                   static_cast<std::uint64_t>(base.cycles_per_query()))
            .param("interleaved_cycles",
                   static_cast<std::uint64_t>(inter.cycles_per_query()))
            .param("ctr_increment_cycles",
                   static_cast<std::uint64_t>(dense.cycles_per_query()))
            .param("paper_convention_cycles",
                   static_cast<std::uint64_t>(w.dims))
            .param("interleaved_speedup", inter.speedup_vs_base()));
  }
  table.add_note("interleaving reaches within 1 cycle of the paper's "
                 "d-cycle convention with stock hardware, at half the "
                 "board capacity; combining it with the counter-increment "
                 "extension is future work (both spend the sort window "
                 "differently).");
  table.print(std::cout);

  // Device-time impact on the Table III small-dataset scenario.
  util::TablePrinter impact("Small-dataset device time under each design (ms)");
  impact.set_header({"Workload", "base", "interleaved (2 configs)",
                     "paper convention"});
  for (const auto& w : perf::paper_workloads()) {
    const double cyc = 1.0 / 133e6;
    const core::StreamSpec base{w.dims, 1};
    const core::InterleavedSpec inter{w.dims};
    const double base_ms =
        perf::kQueryCount * base.cycles_per_query() * cyc * 1e3;
    // Halved capacity -> the small dataset needs two passes.
    const double inter_ms =
        2.0 * perf::kQueryCount * inter.cycles_per_query() * cyc * 1e3;
    const double paper_ms = perf::kQueryCount * w.dims * cyc * 1e3;
    impact.add_row({w.name, util::TablePrinter::fmt(base_ms, 2),
                    util::TablePrinter::fmt(inter_ms, 2),
                    util::TablePrinter::fmt(paper_ms, 2)});
  }
  impact.add_note("when capacity is the binding constraint the interleaved "
                  "design's 2x area cancels its 2x speedup; it wins when "
                  "the dataset fits with room to spare (latency-bound use).");
  impact.print(std::cout);
  if (report.ok()) {
    std::printf("\nrecorded -> %s\n", report.path().c_str());
  }
  return 0;
}
