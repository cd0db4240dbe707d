// Table IV: large-dataset (n = 2^20) run time and energy efficiency.
// All device times come from this repo's models; the paper's testbed
// numbers are printed alongside for shape comparison. The AP rows exercise
// the partial-reconfiguration accounting (Sec. III-C): Gen 1 is dominated
// by 45 ms reconfigurations, Gen 2 shifts the bottleneck back to compute,
// and Opt+Ext applies the compounded Table VIII gains.

#include <iostream>

#include "bench_util.hpp"
#include "hwmodels/fpga_accelerator.hpp"
#include "hwmodels/gpu_model.hpp"
#include "hwmodels/platforms.hpp"
#include "perf/projection.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

/// Records one platform's modeled run time for a workload as a JSON line.
void record_platform(apss::util::BenchReport& report,
                     const std::string& workload, const char* platform,
                     std::size_t dims, double model_seconds,
                     const apss::perf::ApEstimate* ap = nullptr) {
  apss::util::BenchRecord rec(workload + "." + platform);
  rec.param("n", static_cast<std::uint64_t>(apss::perf::kLargeN))
      .param("dims", static_cast<std::uint64_t>(dims))
      .param("queries", static_cast<std::uint64_t>(apss::perf::kQueryCount))
      .model_seconds(model_seconds);
  if (ap != nullptr) {
    rec.param("configurations", static_cast<std::uint64_t>(ap->configurations))
        .param("queries_per_joule", ap->queries_per_joule)
        .cycles(static_cast<std::uint64_t>(
            ap->cycles_per_query *
            static_cast<double>(apss::perf::kQueryCount) *
            static_cast<double>(ap->configurations)));
  }
  report.write(rec);
}

}  // namespace

int main() {
  using namespace apss;
  util::BenchReport report = bench::open_report("table4_large");
  util::Timer bench_timer;

  util::TablePrinter runtime("Table IV: large-dataset run time (s)");
  runtime.set_header({"Workload", "Xeon", "(paper)", "Titan X", "(paper)",
                      "Kintex", "(paper)", "AP Gen1", "(paper)", "AP Gen2",
                      "(paper)", "Opt+Ext", "(paper)"});
  util::TablePrinter energy("Table IV: energy efficiency (query/Joule)");
  energy.set_header({"Workload", "Xeon", "Titan X", "Kintex", "AP Gen1",
                     "AP Gen2", "Opt+Ext", "Gen2(paper)", "Opt+Ext(paper)"});

  util::TablePrinter breakdown("AP Gen1 vs Gen2: where the time goes");
  breakdown.set_header({"Workload", "configs", "Gen1 compute s",
                        "Gen1 reconfig s", "reconfig share",
                        "Gen2 reconfig share"});

  for (const auto& w : perf::paper_workloads()) {
    const auto& ref = perf::paper_reference(w.name);

    const double xeon_s = perf::scan_seconds(
        hwmodels::platform("Xeon E5-2620"), perf::kQueryCount, perf::kLargeN,
        w.dims);
    const double titan_s = hwmodels::GpuModel::titan_x().seconds(
        perf::kQueryCount, perf::kLargeN, w.dims);
    const hwmodels::FpgaAccelerator fpga(
        knn::BinaryDataset::uniform(4, w.dims, 1), {});
    const auto fpga_stats =
        fpga.project(perf::kQueryCount, perf::kLargeN, w.dims, w.k);
    const double kintex_s = fpga_stats.seconds(fpga.options());

    perf::ApScenario scenario;
    scenario.workload = w;
    scenario.n = perf::kLargeN;
    const perf::ApEstimate gen1 = perf::estimate_ap(scenario);
    scenario.device = apsim::DeviceConfig::gen2();
    const perf::ApEstimate gen2 = perf::estimate_ap(scenario);
    const perf::CompoundGains gains = perf::compound_gains(w);
    const perf::ApEstimate optext = perf::estimate_ap_opt_ext(scenario, gains);

    record_platform(report, w.name, "xeon", w.dims, xeon_s);
    record_platform(report, w.name, "titan_x", w.dims, titan_s);
    record_platform(report, w.name, "kintex", w.dims, kintex_s);
    record_platform(report, w.name, "ap_gen1", w.dims, gen1.total_seconds,
                    &gen1);
    record_platform(report, w.name, "ap_gen2", w.dims, gen2.total_seconds,
                    &gen2);
    record_platform(report, w.name, "ap_opt_ext", w.dims,
                    optext.total_seconds, &optext);

    runtime.add_row({w.name, util::TablePrinter::fmt(xeon_s, 2),
                     util::TablePrinter::fmt(ref.l_xeon_s, 2),
                     util::TablePrinter::fmt(titan_s, 2),
                     util::TablePrinter::fmt(ref.l_titan_s, 2),
                     util::TablePrinter::fmt(kintex_s, 2),
                     util::TablePrinter::fmt(ref.l_kintex_s, 2),
                     util::TablePrinter::fmt(gen1.total_seconds, 2),
                     util::TablePrinter::fmt(ref.l_gen1_s, 2),
                     util::TablePrinter::fmt(gen2.total_seconds, 2),
                     util::TablePrinter::fmt(ref.l_gen2_s, 2),
                     util::TablePrinter::fmt(optext.total_seconds, 3),
                     util::TablePrinter::fmt(ref.l_optext_s, 3)});

    const double xeon_qpj = hwmodels::queries_per_joule(
        perf::kQueryCount, xeon_s,
        hwmodels::platform("Xeon E5-2620").dynamic_power_w);
    const double titan_qpj = hwmodels::queries_per_joule(
        perf::kQueryCount, titan_s,
        hwmodels::platform("Titan X").dynamic_power_w);
    const double kintex_qpj = hwmodels::queries_per_joule(
        perf::kQueryCount, kintex_s,
        hwmodels::platform("Kintex-7").dynamic_power_w);
    energy.add_row({w.name, util::TablePrinter::fmt(xeon_qpj, 2),
                    util::TablePrinter::fmt(titan_qpj, 2),
                    util::TablePrinter::fmt(kintex_qpj, 2),
                    util::TablePrinter::fmt(gen1.queries_per_joule, 2),
                    util::TablePrinter::fmt(gen2.queries_per_joule, 2),
                    util::TablePrinter::fmt(optext.queries_per_joule, 2),
                    util::TablePrinter::fmt(ref.l_gen2_qpj, 2),
                    util::TablePrinter::fmt(ref.l_optext_qpj, 2)});

    breakdown.add_row(
        {w.name, std::to_string(gen1.configurations),
         util::TablePrinter::fmt(gen1.compute_seconds, 2),
         util::TablePrinter::fmt(gen1.reconfig_seconds, 2),
         util::TablePrinter::fmt(
             gen1.reconfig_seconds / gen1.total_seconds * 100.0, 1) + "%",
         util::TablePrinter::fmt(
             gen2.reconfig_seconds / gen2.total_seconds * 100.0, 1) + "%"});
  }

  runtime.add_note("AP columns use the paper's d-cycle throughput "
                   "convention (DESIGN.md); Gen2/Gen1 improvement ~19x, "
                   "matching Sec. V-B.");
  runtime.print(std::cout);
  std::cout << '\n';
  energy.print(std::cout);
  std::cout << '\n';
  breakdown.add_note("Gen1 reconfiguration accounts for the overwhelming "
                     "share of execution (Sec. V-B: 'upwards of 98%').");
  breakdown.print(std::cout);
  report.write(util::BenchRecord("bench_total")
                   .wall_seconds(bench_timer.seconds()));
  if (report.ok()) {
    std::printf("\nrecorded -> %s\n", report.path().c_str());
  }
  return 0;
}
