// Fig. 5 / Sec. VI-A: the vector-packing microbenchmark — "places and
// routes eight vectors across 32, 64, and 128 dimensions". Reports the
// measured STE savings of the packed ladder and the routability outcome:
// flat collectors (the naive construction) fail to fully route at high
// dimensionality, exactly the paper's observation; tree collectors restore
// routability at some state cost (the toolchain-maturity outlook).
//
// A second section compares the simulation backends on the vector-packed
// engine (EngineOptions::packing_group_size = group): the same kNN search
// runs on the cycle-accurate reference and on the bit-parallel batch
// backend through bench::compare_backends, which asserts identical
// neighbors, device work and collected ReportEvent streams and records the
// median of 3 cycle-accurate and of 31 warm bit-parallel searches to
// BENCH_fig5_vector_packing.json.
//
// Usage: bench_fig5_vector_packing [n] [dims] [queries] [group]
//        (defaults 1024 128 32 8)

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "apsim/placement.hpp"
#include "bench_util.hpp"
#include "core/opt/vector_packing.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"

namespace {

using namespace apss;
using apss::bench::parse_positive;

void run_savings_grid(util::BenchReport& report) {
  util::TablePrinter table("Fig. 5 microbenchmark: 8 packed vectors");
  table.set_header({"dims", "unpacked STEs", "packed STEs (flat)", "savings",
                    "flat routed?", "tree STEs", "tree routed?"});

  for (const std::size_t dims : {32u, 64u, 128u}) {
    const auto data = knn::BinaryDataset::uniform(8, dims, 55);

    core::VectorPackingOptions flat;
    flat.group_size = 8;
    const core::PackingSavings savings = core::packing_savings(data, flat);

    anml::AutomataNetwork flat_net;
    core::build_packed_network(flat_net, data, flat);
    const auto flat_place =
        apsim::place(flat_net, apsim::DeviceGeometry::one_rank());

    core::VectorPackingOptions tree = flat;
    tree.style = core::CollectorStyle::kTree;
    anml::AutomataNetwork tree_net;
    core::build_packed_network(tree_net, data, tree);
    const auto tree_place =
        apsim::place(tree_net, apsim::DeviceGeometry::one_rank());

    table.add_row({std::to_string(dims), std::to_string(savings.unpacked_stes),
                   std::to_string(savings.packed_stes),
                   util::TablePrinter::fmt(savings.ratio(), 2) + "x",
                   flat_place.routed ? "yes" : "PARTIAL",
                   std::to_string(tree_net.stats().ste_count),
                   tree_place.routed ? "yes" : "PARTIAL"});
    report.write(util::BenchRecord("packing_savings")
                     .param("dims", static_cast<std::uint64_t>(dims))
                     .param("group", std::uint64_t{8})
                     .param("unpacked_stes",
                            static_cast<std::uint64_t>(savings.unpacked_stes))
                     .param("packed_stes",
                            static_cast<std::uint64_t>(savings.packed_stes))
                     .param("savings", savings.ratio())
                     .param("flat_routed", flat_place.routed ? "yes" : "no")
                     .param("tree_routed", tree_place.routed ? "yes" : "no"));
  }
  table.add_note("PARTIAL = placed but fan-in exceeds the routing matrix "
                 "limit, the paper's 'placed but only partially routed' "
                 "finding for high-dimensional packed designs.");
  table.print(std::cout);
}

int run_backend_comparison(util::BenchReport& report, std::size_t n,
                           std::size_t dims, std::size_t queries_n,
                           std::size_t group) {
  core::EngineOptions design;
  design.packing_group_size = group;
  return bench::compare_backends(
      report, "packed", "Packed-design backend comparison",
      "vector-packed engine (kTree collectors); target at default sizes: "
      ">= 50x.",
      knn::BinaryDataset::uniform(n, dims, 57),
      knn::BinaryDataset::uniform(queries_n, dims, 58), 10, design, 3);
}

}  // namespace

int main(int argc, char** argv) try {
  std::size_t n = 1024, dims = 128, queries = 32, group = 8;
  if (argc > 1) n = parse_positive(argv[1]);
  if (argc > 2) dims = parse_positive(argv[2]);
  if (argc > 3) queries = parse_positive(argv[3]);
  if (argc > 4) group = parse_positive(argv[4]);
  if (n == 0 || dims == 0 || queries == 0 || group == 0) {
    std::fprintf(stderr,
                 "usage: bench_fig5_vector_packing [n] [dims] [queries] "
                 "[group]  (positive integers; defaults 1024 128 32 8)\n");
    return 2;
  }

  util::BenchReport report = bench::open_report("fig5_vector_packing");
  run_savings_grid(report);
  std::cout << '\n';
  const int rc = run_backend_comparison(report, n, dims, queries, group);
  if (report.ok()) {
    std::printf("\nrecorded -> %s\n", report.path().c_str());
  }
  return rc;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "error: %s\n", ex.what());
  return 1;
}
