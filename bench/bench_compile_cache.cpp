// Ahead-of-time compile cache benchmark: how much wall clock does loading
// a versioned on-disk artifact save versus verifying + compiling the
// automata from scratch at the fig8 working point (1024 vectors x 128
// dims, bit-parallel backend)?
//
// Three engine constructions are timed:
//   fresh  — no cache directory: network build + verification compile
//   miss   — empty cache directory: fresh work plus encode + atomic save
//   load   — warm cache directory: decode + validate the artifacts only
// The load arm is the best of 3 bench::time_rounds runs (it is fast enough
// that a single cold page cache read would dominate). All three engines
// must return identical neighbor lists, and the loaded programs must
// compare bit-for-bit equal to the freshly compiled ones — the bench fails
// otherwise.
//
// Usage: bench_compile_cache [n] [dims] [queries]   (default 1024 128 8)
//
// Records BENCH_compile_cache.json: compile_cache_fresh_compile,
// compile_cache_miss_compile_save, compile_cache_artifact_load, and
// compile_cache_speedup (params.speedup = fresh / load wall clock — the
// CI perf gate asserts >= 10x at the default scale).

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "knn/dataset.hpp"
#include "util/bench_report.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace apss;
using apss::bench::fmt;

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      total += entry.file_size();
    }
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 1024, dims = 128, query_count = 8;
  if (argc > 1) n = bench::parse_positive(argv[1]);
  if (argc > 2) dims = bench::parse_positive(argv[2]);
  if (argc > 3) query_count = bench::parse_positive(argv[3]);
  if (n == 0 || dims == 0 || query_count == 0) {
    std::cerr << "usage: " << argv[0] << " [n] [dims] [queries]\n";
    return 2;
  }

  util::Rng rng(20170529);
  const auto data = bench::random_dataset(rng, n, dims);
  const auto queries = bench::random_dataset(rng, query_count, dims);

  const std::string cache_dir =
      (std::filesystem::temp_directory_path() / "apss_bench_compile_cache")
          .string();
  std::filesystem::remove_all(cache_dir);

  core::EngineOptions opt;
  opt.backend = core::SimulationBackend::kBitParallel;
  opt.threads = 1;  // serialize compilation so the arms time the same work

  // Arm 1: fresh — network construction + verification compile, no cache.
  util::Timer fresh_timer;
  core::ApKnnEngine fresh(data, opt);
  const double fresh_wall = fresh_timer.seconds();
  const std::size_t configs = fresh.configurations();

  // Arm 2: miss — the fresh work plus artifact encode + atomic save.
  opt.artifact_cache_dir = cache_dir;
  util::Timer miss_timer;
  core::ApKnnEngine miss(data, opt);
  const double miss_wall = miss_timer.seconds();
  if (miss.backend_stats().artifact.misses != configs) {
    std::cerr << "FAIL: cold construction did not miss on every slot\n";
    return 1;
  }
  const std::uint64_t artifact_bytes = directory_bytes(cache_dir);

  // Arm 3: load — decode + validate only, best of 3 constructions.
  std::size_t load_misses = 0;
  const bench::Spread load = bench::spread_of(bench::time_rounds(
      {[&] {
        util::Timer load_timer;
        core::ApKnnEngine warm(data, opt);
        const double wall = load_timer.seconds();
        load_misses += warm.backend_stats().artifact.hits != configs;
        return wall;
      }},
      3)[0]);
  if (load_misses != 0) {
    std::cerr << "FAIL: warm construction did not hit on every slot\n";
    return 1;
  }
  const double load_wall = load.min;

  // Differential gate: the cache must be invisible to results, and the
  // loaded programs must equal the freshly compiled ones bit for bit.
  core::ApKnnEngine warm(data, opt);
  const std::size_t k = std::min<std::size_t>(10, n);
  const auto expected = fresh.search(queries, k);
  if (miss.search(queries, k) != expected ||
      warm.search(queries, k) != expected) {
    std::cerr << "FAIL: cached engines returned different neighbors\n";
    return 1;
  }
  for (std::size_t c = 0; c < configs; ++c) {
    if (warm.program(c)->state() != fresh.program(c)->state()) {
      std::cerr << "FAIL: loaded program " << c
                << " differs from fresh compile\n";
      return 1;
    }
  }

  const double speedup = load_wall > 0 ? fresh_wall / load_wall : 0.0;
  const double save_overhead = fresh_wall > 0 ? miss_wall / fresh_wall : 0.0;

  util::TablePrinter table("Compile cache: fresh compile vs artifact load (" +
                           std::to_string(n) + "x" + std::to_string(dims) +
                           ", " + std::to_string(configs) +
                           " configurations)");
  table.set_header({"arm", "wall [ms]", "vs fresh"},
                   {util::Align::kLeft, util::Align::kRight,
                    util::Align::kRight});
  table.add_row({"fresh compile", fmt("%.2f", fresh_wall * 1e3), "1.00x"});
  table.add_row({"miss (compile+save)", fmt("%.2f", miss_wall * 1e3),
                 fmt("%.2fx", save_overhead)});
  table.add_row({"artifact load (best of 3)", fmt("%.2f", load_wall * 1e3),
                 fmt("%.1fx faster", speedup)});
  table.add_note("artifact bytes on disk: " + std::to_string(artifact_bytes));
  table.add_note("all arms returned identical neighbors; loaded programs "
                 "are bit-identical to fresh compiles");
  table.print(std::cout);

  util::BenchReport report = bench::open_report("compile_cache");
  const auto stamp = [&](util::BenchRecord& rec) {
    rec.param("n", static_cast<std::uint64_t>(n))
        .param("dims", static_cast<std::uint64_t>(dims))
        .param("configurations", static_cast<std::uint64_t>(configs));
  };
  {
    util::BenchRecord rec("compile_cache_fresh_compile");
    stamp(rec);
    report.write(rec.wall_seconds(fresh_wall));
  }
  {
    util::BenchRecord rec("compile_cache_miss_compile_save");
    stamp(rec);
    report.write(rec.wall_seconds(miss_wall));
  }
  {
    util::BenchRecord rec("compile_cache_artifact_load");
    stamp(rec);
    rec.param("artifact_bytes", artifact_bytes);
    report.write(bench::with_spread(rec, load).wall_seconds(load_wall));
  }
  {
    util::BenchRecord rec("compile_cache_speedup");
    stamp(rec);
    rec.param("speedup", speedup).param("save_overhead", save_overhead);
    report.write(rec);
  }
  if (!report.ok()) {
    std::cerr << "warning: could not write " << report.path() << "\n";
  } else {
    std::cout << "\nrecorded " << report.path() << "\n";
  }
  std::cout << "artifact load is " << fmt("%.1f", speedup)
            << "x faster than a fresh verification+compile\n";
  return 0;
}
