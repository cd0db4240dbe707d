// Sec. V-A: resource utilization per board configuration. Builds the FULL
// configuration network for each workload (1024 / 1024 / 512 macros),
// places it on a one-rank board, and compares apadmin-style block
// utilization with the paper's 41.7 / 90.9 / 78.6 %.

#include <cstdio>
#include <iostream>

#include "apsim/placement.hpp"
#include "bench_util.hpp"
#include "core/engine.hpp"
#include "perf/workloads.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace apss;
  util::BenchReport report = bench::open_report("resource_utilization");
  util::TablePrinter table("Sec. V-A: resource utilization per configuration");
  table.set_header({"Workload", "vectors", "STEs", "blocks", "half-cores",
                    "util % (ours)", "util % (paper)", "report BW (Gbit/s)"});

  for (const auto& w : perf::paper_workloads()) {
    const auto data = knn::BinaryDataset::uniform(w.vectors_per_config,
                                                  w.dims, 1234);
    core::EngineOptions opt;
    opt.max_vectors_per_config = w.vectors_per_config;
    util::Timer timer;
    core::ApKnnEngine engine(data, opt);
    const auto placement = engine.placement(0);
    const double util_pct =
        placement.block_utilization(apsim::DeviceGeometry::one_rank()) * 100.0;
    table.add_row(
        {w.name, std::to_string(w.vectors_per_config),
         std::to_string(placement.ste_count),
         std::to_string(placement.blocks_used),
         std::to_string(placement.half_cores_used),
         util::TablePrinter::fmt(util_pct, 1),
         util::TablePrinter::fmt(perf::paper_reference(w.name).utilization_pct, 1),
         util::TablePrinter::fmt(engine.report_bandwidth_gbps(), 1)});
    std::cerr << "[" << w.name << "] built+placed "
              << engine.network(0).size() << " elements in "
              << util::TablePrinter::fmt(timer.seconds(), 1) << " s\n";
    report.write(
        util::BenchRecord("utilization")
            .param("workload", w.name)
            .param("vectors",
                   static_cast<std::uint64_t>(w.vectors_per_config))
            .param("stes", static_cast<std::uint64_t>(placement.ste_count))
            .param("blocks",
                   static_cast<std::uint64_t>(placement.blocks_used))
            .param("utilization_pct", util_pct)
            .param("paper_utilization_pct",
                   perf::paper_reference(w.name).utilization_pct)
            .param("report_bw_gbps", engine.report_bandwidth_gbps())
            .wall_seconds(timer.seconds()));
  }
  table.add_note("encoded payload tops out at 128 Kb per configuration "
                 "(1024 x 128 or 512 x 256), matching Sec. V-A.");
  table.add_note("WordEmbed is PCIe-limited (Sec. V-A footnote): its report "
                 "bandwidth column shows why more macros cannot be used.");
  table.add_note("utilization does not depend on k: sorting adds no states "
                 "(Sec. V-A).");
  table.print(std::cout);
  if (report.ok()) {
    std::printf("\nrecorded -> %s\n", report.path().c_str());
  }
  return 0;
}
