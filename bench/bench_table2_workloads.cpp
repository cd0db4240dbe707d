// Table II: kNN workload parameters, extended with the derived board
// capacities and stream-frame geometry this repo computes for each.

#include <cstdio>
#include <iostream>

#include "apsim/placement.hpp"
#include "bench_util.hpp"
#include "core/design.hpp"
#include "core/hamming_macro.hpp"
#include "perf/workloads.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace apss;
  util::BenchReport report = bench::open_report("table2_workloads");
  util::TablePrinter table("Table II: kNN workload parameters");
  table.set_header({"Workload", "Dimensionality", "Neighbors",
                    "frame cycles (2d+L+3)", "macro STEs",
                    "capacity/config (derived)"});
  for (const auto& w : perf::paper_workloads()) {
    anml::AutomataNetwork proto;
    core::append_hamming_macro(proto, util::BitVector(w.dims), 0);
    const auto fp = apsim::footprint_of(proto);
    const std::size_t capacity =
        apsim::max_copies(fp, apsim::DeviceGeometry::one_rank());
    const core::StreamSpec spec{w.dims, 1};
    table.add_row({w.name, std::to_string(w.dims), std::to_string(w.k),
                   std::to_string(spec.cycles_per_query()),
                   std::to_string(fp.stes), std::to_string(capacity)});
    report.write(util::BenchRecord("workload_geometry")
                     .param("workload", w.name)
                     .param("dims", static_cast<std::uint64_t>(w.dims))
                     .param("k", static_cast<std::uint64_t>(w.k))
                     .param("frame_cycles",
                            static_cast<std::uint64_t>(spec.cycles_per_query()))
                     .param("macro_stes", static_cast<std::uint64_t>(fp.stes))
                     .param("capacity", static_cast<std::uint64_t>(capacity)));
  }
  table.add_note("4096 queries per batch (Sec. IV-A); the paper's stated "
                 "capacities are 1024x128-dim / 512x256-dim per board "
                 "configuration (Sec. V-A).");
  table.print(std::cout);
  if (report.ok()) {
    std::printf("\nrecorded -> %s\n", report.path().c_str());
  }
  return 0;
}
