// Serving-core load benchmark (ISSUE 10, docs/ROBUSTNESS.md "Serving"):
// what does serve::KnnServer do as open-loop load crosses saturation?
//
// Protocol, at the fig8 working point by default (1024 vectors x 128
// dims, bit-parallel backend, 2 workers):
//   calibrate — a closed burst of queries measures the server's sustained
//               batch throughput; its completion rate defines the
//               saturation QPS (1x).
//   phases    — open-loop arrivals (fixed rate, independent of
//               completions) at 1x, 2x, and 4x saturation for a fixed
//               window each, on a fresh server per phase. Per phase:
//               achieved QPS, p50/p99 latency of ADMITTED requests, shed
//               rate (typed kOverloaded), queue high-water, mean batch
//               occupancy.
//
// The overload contract under test: past saturation the server sheds with
// typed kOverloaded instead of queueing without bound, so the p99 of what
// it DOES admit stays bounded by the queue depth, not by the offered
// rate — and every submitted future still resolves exactly once.
//
// Usage: bench_serving [n] [dims] [k] [phase_ms]  (default 1024 128 10 2000)
//
// Records BENCH_serving.json: serving_saturation plus serving_load_{1,2,4}x
// (offered/achieved QPS, p50/p99, shed rate, occupancy).

#include <algorithm>
#include <cstdio>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "knn/dataset.hpp"
#include "serve/server.hpp"
#include "util/bench_report.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace apss;
using apss::bench::fmt;
using Clock = std::chrono::steady_clock;

serve::ServerOptions bed_options(std::size_t k) {
  serve::ServerOptions options;
  options.engine.backend = core::SimulationBackend::kBitParallel;
  options.engine.threads = 1;
  options.k = k;
  options.workers = 2;
  options.max_batch = 32;
  options.batch_window_ms = 0.5;
  // A deliberately tight queue: overload must surface as typed shedding
  // (and bounded admitted-latency), not as a growing backlog.
  options.max_queue_depth = 64;
  options.max_inflight = 256;
  return options;
}

struct PhaseResult {
  double offered_qps = 0;
  double achieved_qps = 0;  ///< kOk completions per second of phase wall
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  double shed_rate_pct = 0;
  double p50_ms = 0;  ///< over admitted-and-served (kOk) requests
  double p99_ms = 0;
  std::size_t queue_high_water = 0;
  double mean_occupancy = 0;
  bool leaked = false;
};

/// One open-loop phase on a FRESH server (clean counters): submit at
/// `qps` for `phase_ms`, drain, account every future.
PhaseResult run_phase(const knn::BinaryDataset& data,
                      const knn::BinaryDataset& queries, std::size_t k,
                      double qps, double phase_ms) {
  serve::KnnServer server(data, bed_options(k));
  PhaseResult out;
  out.offered_qps = qps;

  std::vector<std::future<serve::Response>> futures;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / qps));
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   phase_ms));
  auto next = start;
  std::size_t i = 0;
  while (Clock::now() < end) {
    std::this_thread::sleep_until(next);
    next += interval;
    futures.push_back(server.submit(queries.vector(i % queries.size())));
    ++i;
  }
  server.drain();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> ok_latency_ms;
  for (auto& future : futures) {
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      out.leaked = true;
      continue;
    }
    const serve::Response response = future.get();
    if (response.ok()) {
      ++out.ok;
      ok_latency_ms.push_back(response.total_ms);
    } else if (response.code == serve::ResponseCode::kOverloaded) {
      ++out.shed;
    }
  }
  const serve::ServerStats stats = server.stats();
  out.submitted = futures.size();
  out.leaked = out.leaked || !stats.accounted();
  out.achieved_qps = wall_s > 0 ? static_cast<double>(out.ok) / wall_s : 0;
  out.shed_rate_pct = out.submitted > 0 ? 100.0 *
                                              static_cast<double>(out.shed) /
                                              static_cast<double>(out.submitted)
                                        : 0;
  if (!ok_latency_ms.empty()) {
    out.p50_ms = util::percentile(ok_latency_ms, 50);
    out.p99_ms = util::percentile(ok_latency_ms, 99);
  }
  out.queue_high_water = stats.queue_high_water;
  out.mean_occupancy = stats.mean_batch_occupancy();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 1024, dims = 128, k = 10;
  double phase_ms = 2000;
  if (argc > 1) n = bench::parse_positive(argv[1]);
  if (argc > 2) dims = bench::parse_positive(argv[2]);
  if (argc > 3) k = bench::parse_positive(argv[3]);
  if (argc > 4) phase_ms = static_cast<double>(bench::parse_positive(argv[4]));
  if (n == 0 || dims == 0 || k == 0 || phase_ms <= 0) {
    std::cerr << "usage: " << argv[0] << " [n] [dims] [k] [phase_ms]\n";
    return 2;
  }
  k = std::min(k, n);

  const auto data = knn::BinaryDataset::uniform(n, dims, 20170529);
  const auto queries = knn::perturbed_queries(data, 128, 0.1, 20170530);

  // Calibration: a deliberate-overload probe (arrival rate far past any
  // plausible capacity). Its kOk completion rate IS the sustained batched
  // throughput at full frame occupancy = the 1x saturation QPS. A gentle
  // closed burst would underestimate it badly: dynamic batching gets
  // faster per query as frames fill, so capacity must be measured at full
  // frames.
  const PhaseResult probe =
      run_phase(data, queries, k, 1e6, std::max(phase_ms / 2, 100.0));
  if (probe.ok == 0 || probe.achieved_qps <= 0) {
    std::cerr << "FAIL: calibration probe produced no completions\n";
    return 1;
  }
  const double saturation_qps = probe.achieved_qps;

  std::vector<PhaseResult> phases;
  for (const double mult : {1.0, 2.0, 4.0}) {
    phases.push_back(
        run_phase(data, queries, k, mult * saturation_qps, phase_ms));
  }

  util::TablePrinter table(
      "Serving core under open-loop load (" + std::to_string(n) + "x" +
      std::to_string(dims) + ", 2 workers, queue 64, saturation " +
      fmt("%.0f", saturation_qps) + " qps)");
  table.set_header({"load", "offered qps", "ok qps", "p50 ms", "p99 ms",
                    "shed %", "queue hw", "batch occ"},
                   {util::Align::kLeft, util::Align::kRight,
                    util::Align::kRight, util::Align::kRight,
                    util::Align::kRight, util::Align::kRight,
                    util::Align::kRight, util::Align::kRight});
  const char* labels[] = {"1x", "2x", "4x"};
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const PhaseResult& r = phases[p];
    table.add_row({labels[p], fmt("%.0f", r.offered_qps),
                   fmt("%.0f", r.achieved_qps), fmt("%.2f", r.p50_ms),
                   fmt("%.2f", r.p99_ms), fmt("%.1f", r.shed_rate_pct),
                   std::to_string(r.queue_high_water),
                   fmt("%.1f", r.mean_occupancy)});
  }
  table.add_note("p50/p99 over admitted-and-served requests; shed = typed "
                 "kOverloaded at admission");
  table.print(std::cout);

  util::BenchReport report = bench::open_report("serving");
  {
    util::BenchRecord rec("serving_saturation");
    rec.param("n", static_cast<std::uint64_t>(n))
        .param("dims", static_cast<std::uint64_t>(dims))
        .param("k", static_cast<std::uint64_t>(k))
        .param("saturation_qps", saturation_qps);
    report.write(rec);
  }
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const PhaseResult& r = phases[p];
    util::BenchRecord rec("serving_load_" + std::string(labels[p]));
    rec.param("n", static_cast<std::uint64_t>(n))
        .param("dims", static_cast<std::uint64_t>(dims))
        .param("offered_qps", r.offered_qps)
        .param("achieved_qps", r.achieved_qps)
        .param("submitted", r.submitted)
        .param("ok", r.ok)
        .param("shed", r.shed)
        .param("shed_rate_pct", r.shed_rate_pct)
        .param("p50_ms", r.p50_ms)
        .param("p99_ms", r.p99_ms)
        .param("queue_high_water",
               static_cast<std::uint64_t>(r.queue_high_water))
        .param("mean_batch_occupancy", r.mean_occupancy);
    report.write(rec);
  }
  if (!report.ok()) {
    std::cerr << "warning: could not write " << report.path() << "\n";
  } else {
    std::cout << "\nrecorded " << report.path() << "\n";
  }

  for (const PhaseResult& r : phases) {
    if (r.leaked) {
      std::cerr << "FAIL: a phase leaked responses (future unresolved or "
                   "stats unaccounted)\n";
      return 1;
    }
  }
  // The overload contract: past saturation (2x, 4x) the server must shed —
  // bounded queue, typed rejections — rather than absorb the full rate.
  if (phases[2].shed == 0) {
    std::cerr << "FAIL: no shedding at 4x saturation — admission control "
                 "is not bounding the queue\n";
    return 1;
  }
  std::printf("at 4x saturation: %.1f%% shed (typed kOverloaded), admitted "
              "p99 %.2f ms (1x p99 %.2f ms)\n",
              phases[2].shed_rate_pct, phases[2].p99_ms, phases[0].p99_ms);
  return 0;
}
