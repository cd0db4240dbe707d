// Fig. 6 / Sec. VI-B: symbol-stream multiplexing. Seven queries ride one
// stream in separate bit slices; the bench verifies correctness against
// per-query streaming, quantifies the 7x frame-count reduction, and shows
// the two costs the paper says make it infeasible on Gen-1 hardware: the
// 7x STE footprint and the 7x report bandwidth.
//
// A second section compares the simulation backends on the 7-slice
// multiplexed engine (EngineOptions::multiplex_slices = 7, n vectors x 7
// slice replicas split over the board configurations they need): the same
// kNN search runs on the cycle-accurate reference and on the bit-parallel
// batch backend through bench::compare_backends, which asserts identical
// neighbors, device work and collected ReportEvent streams and records the
// median of 3 cycle-accurate and of 31 warm bit-parallel searches to
// BENCH_fig6_multiplexing.json.
//
// Usage: bench_fig6_multiplexing [n] [dims] [queries]
//        (defaults 1024 128 56)

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"

namespace {

using namespace apss;
using apss::bench::parse_positive;

int run_feasibility_table(util::BenchReport& report) {
  const std::size_t dims = 32;
  const auto data = knn::BinaryDataset::uniform(48, dims, 66);
  const auto queries = knn::BinaryDataset::uniform(21, dims, 67);
  constexpr std::size_t kK = 4;

  // Multiplexed design (on the bit-parallel backend, exercising the demux).
  core::EngineOptions mux_opt;
  mux_opt.backend = core::SimulationBackend::kBitParallel;
  mux_opt.multiplex_slices = core::kMaxSlices;
  core::ApKnnEngine mux(data, mux_opt);
  const auto mux_results = mux.search(queries, kK);

  // Base design: one query per frame.
  const core::ApKnnEngine baseline_engine(data);

  // Exact answers: the same neighbours in the same tie order as the scan.
  std::size_t agreements = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    agreements += mux_results[q] == knn::knn_scan(data, queries.row(q), kK);
  }

  const auto mux_place = mux.placement(0);
  const auto base_place = baseline_engine.placement(0);
  const bool bit_parallel =
      mux.configurations() == 1 && mux.bit_parallel_configurations() == 1;

  util::TablePrinter table("Fig. 6: symbol-stream multiplexing (7 slices)");
  table.set_header({"metric", "base design", "multiplexed"});
  table.add_row({"frames for 21 queries", "21", std::to_string(mux.frames_for(21))});
  table.add_row({"frames for 4096 queries", "4096",
                 std::to_string(mux.frames_for(4096))});
  table.add_row({"STEs on board", std::to_string(base_place.ste_count),
                 std::to_string(mux_place.ste_count)});
  table.add_row({"exact kNN answers",
                 std::to_string(queries.size()) + "/" +
                     std::to_string(queries.size()),
                 std::to_string(agreements) + "/" +
                     std::to_string(queries.size())});
  table.add_note("throughput gain is 7x fewer frames at 7x the STE cost and "
                 "7x the report traffic; Sec. VI-B explains why Gen-1 "
                 "capacity and PCIe bandwidth cannot host it yet.");
  table.print(std::cout);
  report.write(util::BenchRecord("feasibility")
                   .param("dims", static_cast<std::uint64_t>(dims))
                   .param("slices", std::uint64_t{7})
                   .param("frames_for_4096",
                          static_cast<std::uint64_t>(mux.frames_for(4096)))
                   .param("base_stes",
                          static_cast<std::uint64_t>(base_place.ste_count))
                   .param("mux_stes",
                          static_cast<std::uint64_t>(mux_place.ste_count))
                   .param("backend",
                          bit_parallel ? "bit_parallel" : "fallback"));

  return agreements == queries.size() ? 0 : 1;
}

int run_backend_comparison(util::BenchReport& report, std::size_t n,
                           std::size_t dims, std::size_t queries_n) {
  core::EngineOptions design;
  design.multiplex_slices = core::kMaxSlices;
  return bench::compare_backends(
      report, "mux", "Multiplexed-design backend comparison",
      "7-slice multiplexed engine: each frame carries 7 queries, so the "
      "cycle column is ~7x smaller than per-query streaming would need; "
      "target at default sizes: >= 50x.",
      knn::BinaryDataset::uniform(n, dims, 68),
      knn::BinaryDataset::uniform(queries_n, dims, 69), 10, design, 3);
}

}  // namespace

int main(int argc, char** argv) try {
  std::size_t n = 1024, dims = 128, queries = 56;
  if (argc > 1) n = parse_positive(argv[1]);
  if (argc > 2) dims = parse_positive(argv[2]);
  if (argc > 3) queries = parse_positive(argv[3]);
  if (n == 0 || dims == 0 || queries == 0) {
    std::fprintf(stderr,
                 "usage: bench_fig6_multiplexing [n] [dims] [queries]  "
                 "(positive integers; defaults 1024 128 56)\n");
    return 2;
  }

  util::BenchReport report = bench::open_report("fig6_multiplexing");
  const int feasibility_rc = run_feasibility_table(report);
  std::cout << '\n';
  const int backend_rc = run_backend_comparison(report, n, dims, queries);
  if (report.ok()) {
    std::printf("\nrecorded -> %s\n", report.path().c_str());
  }
  return feasibility_rc != 0 ? feasibility_rc : backend_rc;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "error: %s\n", ex.what());
  return 1;
}
