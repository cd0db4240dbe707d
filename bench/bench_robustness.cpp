// Robustness-layer overhead benchmark (docs/ROBUSTNESS.md): what does the
// cooperative checkpoint machinery cost when nothing ever fails, and how
// far past its deadline does a timed-out search run?
//
// Two questions, at the fig8 working point (1024 vectors x 128 dims,
// bit-parallel backend):
//   overhead  — search wall clock with no deadline (the plain fast path)
//               vs three deadlines that never fire, each checkpointing
//               every frame: a huge one (the CI gate), a serving-scale
//               50 ms one, and one inside the coarse clock's slack
//               (util::Deadline::coarse_slack()), where every checkpoint
//               also reads the precise clock. Each arm runs on its own
//               engine and passes its budget through SearchControl, the
//               deadline starting inside the timed region. The arms are
//               timed in N bench::time_rounds rounds, the order reversing
//               every round, and each overhead is the median of its
//               per-round ratios to the plain arm, so a host speed swing
//               hits all arms of a round alike instead of reading as
//               overhead. Every arm must return bit-identical neighbors;
//               the CI gate asserts the huge and 50 ms deadlines cost < 2%.
//   overshoot — the query batch doubled (repeating queries) until its
//               plain search takes at least 4x the 0.05 ms deadline
//               floor, then a deadline at half that wall clock, under
//               kRetry with no retries, over 9 runs: elapsed - deadline
//               measures the frame-granular enforcement lag.
//
// Usage: bench_robustness [n] [dims] [queries] [rounds]
//        (default 1024 128 32 500)
//
// Records BENCH_robustness.json: robustness_checkpoint_plain,
// robustness_checkpoint_engaged, robustness_checkpoint_overhead
// (params.overhead_pct — the CI gate), robustness_checkpoint_overhead_serving
// (gated too), robustness_checkpoint_overhead_window (reported) and
// robustness_deadline_overshoot, each with its arm's spread (reps, q1 ...
// max); the overhead records add overhead_pct_q1 ... overhead_pct_max.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "knn/dataset.hpp"
#include "util/bench_report.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace apss;
using apss::bench::fmt;

/// One search under a `budget_ms` deadline (0 = none): its neighbors, and
/// its stats in *stats.
std::vector<std::vector<knn::Neighbor>> budgeted_search(
    const core::ApKnnEngine& engine, const knn::BinaryDataset& queries,
    std::size_t k, double budget_ms, core::EngineStats* stats) {
  const util::Deadline deadline = budget_ms > 0
                                      ? util::Deadline::after_ms(budget_ms)
                                      : util::Deadline{};
  core::SearchControl control;
  control.deadline = &deadline;
  core::SearchResult result = engine.search(queries, k, control);
  *stats = std::move(result.stats);
  return std::move(result.neighbors);
}

/// Wall clock of one budgeted_search(). The deadline starts and the
/// neighbor lists are released inside the timed region, the same work in
/// every arm.
double search_wall(const core::ApKnnEngine& engine,
                   const knn::BinaryDataset& queries, std::size_t k,
                   double budget_ms, core::EngineStats* stats) {
  util::Timer timer;
  budgeted_search(engine, queries, k, budget_ms, stats);
  return timer.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 1024, dims = 128, query_count = 32, rounds = 500;
  if (argc > 1) n = bench::parse_positive(argv[1]);
  if (argc > 2) dims = bench::parse_positive(argv[2]);
  if (argc > 3) query_count = bench::parse_positive(argv[3]);
  if (argc > 4) rounds = bench::parse_positive(argv[4]);
  if (n == 0 || dims == 0 || query_count == 0 || rounds == 0) {
    std::cerr << "usage: " << argv[0] << " [n] [dims] [queries] [rounds]\n";
    return 2;
  }

  util::Rng rng(20170529);
  const auto data = bench::random_dataset(rng, n, dims);
  const auto queries = bench::random_dataset(rng, query_count, dims);
  const std::size_t k = std::min<std::size_t>(10, n);

  core::EngineOptions opt;
  opt.backend = core::SimulationBackend::kBitParallel;
  opt.threads = 1;  // serialize so all arms time identical work

  // Arm 0: plain — no deadline, no token: the unengaged fast path.
  const core::ApKnnEngine plain(data, opt);
  core::EngineStats stats;
  const auto expected = budgeted_search(plain, queries, k, 0, &stats);
  const std::size_t configs = plain.configurations();

  // Engaged arms: deadlines that never fire, so every query frame pays the
  // checkpoint (clock read + cancellation load) and nothing else. The huge
  // and 50 ms budgets stay more than coarse_slack() from their deadline and
  // take the coarse pre-check; the window arm's budget lies inside the
  // slack, so each of its checkpoints reads both clocks. The two shorter
  // budgets run under kRetry with no retries, so a host stall that fires
  // one cannot abort the bench; its timed-out shards are counted instead.
  const double slack_ms = std::chrono::duration<double, std::milli>(
                              util::Deadline::coarse_slack())
                              .count();
  struct Arm {
    const char* label;
    const char* record;
    double deadline_ms;
    core::OnError on_error;
  };
  const std::vector<Arm> arms = {
      {"huge deadline (checkpointed)", "robustness_checkpoint_overhead", 1e9,
       core::OnError::kFailFast},
      {"50 ms deadline (checkpointed)",
       "robustness_checkpoint_overhead_serving", 50.0, core::OnError::kRetry},
      {"deadline inside the coarse slack",
       "robustness_checkpoint_overhead_window", std::max(1.0, slack_ms / 2),
       core::OnError::kRetry},
  };
  opt.max_retries = 0;
  std::vector<std::unique_ptr<const core::ApKnnEngine>> engines;
  for (const Arm& arm : arms) {
    opt.on_error = arm.on_error;
    engines.push_back(std::make_unique<const core::ApKnnEngine>(data, opt));
    if (budgeted_search(*engines.back(), queries, k, arm.deadline_ms,
                        &stats) != expected) {
      std::cerr << "FAIL: " << arm.label << " changed the neighbors\n";
      return 1;
    }
  }

  // Rounds: even rounds time the plain arm first, odd rounds last.
  std::vector<std::size_t> timed_out_shards(arms.size(), 0);
  std::vector<std::function<double()>> timed = {
      [&] { return search_wall(plain, queries, k, 0, &stats); }};
  for (std::size_t a = 0; a < arms.size(); ++a) {
    timed.push_back([&, a] {
      const double wall = search_wall(*engines[a], queries, k,
                                      arms[a].deadline_ms, &stats);
      timed_out_shards[a] += stats.count_state(core::ShardState::kTimedOut);
      return wall;
    });
  }
  const std::vector<std::vector<double>> walls =
      bench::time_rounds(timed, rounds);
  const bench::Spread plain_wall = bench::spread_of(walls[0]);
  std::vector<bench::Spread> arm_wall, overhead_pct;
  for (std::size_t a = 0; a < arms.size(); ++a) {
    arm_wall.push_back(bench::spread_of(walls[a + 1]));
    // overhead_pct = (median per-round ratio - 1) * 100; its quartiles and
    // extremes map the same way.
    bench::Spread pct =
        bench::spread_of(bench::round_ratios(walls[a + 1], walls[0]));
    for (double* v : {&pct.median, &pct.q1, &pct.q3, &pct.min, &pct.max}) {
      *v = (*v - 1.0) * 100.0;
    }
    overhead_pct.push_back(pct);
  }

  // Overshoot: a deadline at half the plain wall clock of a query batch
  // long enough to overshoot, kRetry with no retries. The batch doubles,
  // repeating the queries, until its plain search (median of 5) takes at
  // least 4x the 0.05 ms deadline floor, so the deadline lands mid-search.
  // Elapsed minus deadline is the enforcement lag (at most about one query
  // frame plus wind-down, since checkpoints sit on frame boundaries). The
  // budget lies inside the coarse slack, so every checkpoint reads the
  // precise clock.
  constexpr std::size_t kOvershootRuns = 9;
  constexpr double kDeadlineFloorMs = 0.05;
  knn::BinaryDataset batch = queries;
  const auto batch_plain_ms = [&] {
    return util::median(bench::time_rounds(
               {[&] { return search_wall(plain, batch, k, 0, &stats); }},
               5)[0]) *
           1e3;
  };
  double batch_ms = batch_plain_ms();
  while (batch_ms < 4 * kDeadlineFloorMs) {
    knn::BinaryDataset doubled(2 * batch.size(), dims);
    for (std::size_t q = 0; q < doubled.size(); ++q) {
      doubled.set_vector(q, batch.vector(q % batch.size()));
    }
    batch = std::move(doubled);
    batch_ms = batch_plain_ms();
  }
  const double deadline_ms = batch_ms / 2;
  opt.on_error = core::OnError::kRetry;
  const core::ApKnnEngine bounded(data, opt);
  std::vector<std::size_t> run_timed_out;
  const std::vector<double> bounded_walls = bench::time_rounds(
      {[&] {
        const double wall = search_wall(bounded, batch, k, deadline_ms, &stats);
        run_timed_out.push_back(stats.count_state(core::ShardState::kTimedOut));
        return wall;
      }},
      kOvershootRuns)[0];
  // The best run's overshoot and shards; elapsed - deadline per run.
  const auto best = static_cast<std::size_t>(
      std::min_element(bounded_walls.begin(), bounded_walls.end()) -
      bounded_walls.begin());
  const double overshoot_ms = bounded_walls[best] * 1e3 - deadline_ms;
  const std::size_t timed_out = run_timed_out[best];
  const auto runs_timed_out = static_cast<std::size_t>(
      std::count_if(run_timed_out.begin(), run_timed_out.end(),
                    [](std::size_t shards) { return shards > 0; }));
  const double overshoot_median_ms =
      util::median(bounded_walls) * 1e3 - deadline_ms;

  util::TablePrinter table(
      "Robustness layer: checkpoint overhead and deadline overshoot (" +
      std::to_string(n) + "x" + std::to_string(dims) + ", " +
      std::to_string(configs) + " configurations, medians over " +
      std::to_string(rounds) + " rounds)");
  table.set_header({"arm", "wall [ms]", "note"},
                   {util::Align::kLeft, util::Align::kRight,
                    util::Align::kLeft});
  table.add_row({"no deadline (fast path)",
                 fmt("%.3f", plain_wall.median * 1e3), "baseline"});
  for (std::size_t a = 0; a < arms.size(); ++a) {
    std::string note = fmt("%+.2f%% vs baseline (median round ratio, ",
                           overhead_pct[a].median) +
                       fmt("%+.2f", overhead_pct[a].q1) + " to " +
                       fmt("%+.2f%% quartiles)", overhead_pct[a].q3);
    if (a > 0) {
      note += ", " + fmt("%.3g", arms[a].deadline_ms) + " ms budget";
    }
    if (timed_out_shards[a] != 0) {
      note += ", " + std::to_string(timed_out_shards[a]) +
              " shards timed out";
    }
    table.add_row({arms[a].label, fmt("%.3f", arm_wall[a].median * 1e3),
                   note});
  }
  table.add_row({"half-batch deadline, retry:0",
                 fmt("%.3f", deadline_ms + overshoot_ms),
                 std::to_string(batch.size()) + " queries, " +
                     fmt("%.3f", deadline_ms) + " ms budget, " +
                     std::to_string(timed_out) + " shards timed out (best of " +
                     std::to_string(kOvershootRuns) + ", " +
                     std::to_string(runs_timed_out) +
                     " runs timed out, median overshoot " +
                     fmt("%.3f", overshoot_median_ms) + " ms)"});
  table.add_note("engaged arms returned bit-identical neighbors");
  table.add_note("coarse clock slack " + fmt("%.3g", slack_ms) + " ms");
  table.print(std::cout);

  util::BenchReport report = bench::open_report("robustness");
  const auto stamp = [&](util::BenchRecord& rec) {
    rec.param("n", static_cast<std::uint64_t>(n))
        .param("dims", static_cast<std::uint64_t>(dims))
        .param("queries", static_cast<std::uint64_t>(query_count))
        .param("configurations", static_cast<std::uint64_t>(configs));
  };
  const auto timed_record = [&](const char* name, const bench::Spread& wall) {
    util::BenchRecord rec(name);
    stamp(rec);
    bench::with_spread(rec, wall).wall_seconds(wall.median);
    return rec;
  };
  report.write(timed_record("robustness_checkpoint_plain", plain_wall));
  report.write(timed_record("robustness_checkpoint_engaged", arm_wall[0]));
  for (std::size_t a = 0; a < arms.size(); ++a) {
    util::BenchRecord rec = timed_record(arms[a].record, arm_wall[a]);
    rec.param("deadline_ms", arms[a].deadline_ms)
        .param("coarse_slack_ms", slack_ms)
        .param("timed_out_shards",
               static_cast<std::uint64_t>(timed_out_shards[a]))
        .param("overhead_pct", overhead_pct[a].median);
    report.write(bench::with_spread(rec, overhead_pct[a], "overhead_pct_"));
  }
  {
    util::BenchRecord rec = timed_record("robustness_deadline_overshoot",
                                         bench::spread_of(bounded_walls));
    rec.param("batch_queries", static_cast<std::uint64_t>(batch.size()))
        .param("deadline_ms", deadline_ms)
        .param("runs_timed_out", static_cast<std::uint64_t>(runs_timed_out))
        .param("overshoot_ms", overshoot_ms)
        .param("overshoot_median_ms", overshoot_median_ms)
        .param("timed_out_configurations",
               static_cast<std::uint64_t>(timed_out));
    report.write(rec);
  }
  if (!report.ok()) {
    std::cerr << "warning: could not write " << report.path() << "\n";
  } else {
    std::cout << "\nrecorded " << report.path() << "\n";
  }
  std::cout << "checkpointed search costs "
            << fmt("%+.2f", overhead_pct[0].median) << "% (huge deadline), "
            << fmt("%+.2f", overhead_pct[1].median) << "% (50 ms), "
            << fmt("%+.2f", overhead_pct[2].median)
            << "% (inside the coarse slack) vs the unengaged fast path\n";
  return 0;
}
