// Table I: evaluated platforms, plus the calibration constants this repo
// derived from the paper's own results (Sec. V).

#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "hwmodels/platforms.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace apss;
  util::BenchReport report = bench::open_report("table1_platforms");
  util::TablePrinter table("Table I: Evaluated platforms");
  table.set_header({"Platform", "Type", "Cores", "Process (nm)", "Clock (MHz)",
                    "Dyn. power (W)*", "Scan rate (Gbit/s)*"});
  const auto type_name = [](hwmodels::PlatformType t) {
    switch (t) {
      case hwmodels::PlatformType::kCpu: return "CPU";
      case hwmodels::PlatformType::kGpu: return "GPU";
      case hwmodels::PlatformType::kFpga: return "FPGA";
      case hwmodels::PlatformType::kAp: return "AP";
    }
    return "?";
  };
  for (const auto& p : hwmodels::platform_catalog()) {
    table.add_row({p.name, type_name(p.type),
                   p.cores > 0 ? std::to_string(p.cores) : "N/A",
                   std::to_string(p.process_nm),
                   util::TablePrinter::fmt(p.clock_mhz, 0),
                   p.dynamic_power_w > 0
                       ? util::TablePrinter::fmt(p.dynamic_power_w, 1)
                       : "-",
                   p.scan_bits_per_second > 0
                       ? util::TablePrinter::fmt(p.scan_bits_per_second / 1e9, 2)
                       : "-"});
    report.write(util::BenchRecord("platform")
                     .param("name", p.name)
                     .param("type", type_name(p.type))
                     .param("clock_mhz", p.clock_mhz)
                     .param("dynamic_power_w", p.dynamic_power_w)
                     .param("scan_gbps", p.scan_bits_per_second / 1e9));
  }
  table.add_note("* columns marked with an asterisk are APSS calibration "
                 "constants back-derived from the paper's Tables III/IV "
                 "(see src/hwmodels/platforms.cpp for the arithmetic).");
  table.print(std::cout);
  if (report.ok()) {
    std::printf("\nrecorded -> %s\n", report.path().c_str());
  }
  return 0;
}
