// Serving: serve::KnnServer driven from one generator thread.
//
// Open loop: request i is due at start + i / rate whether or not earlier
// ones have finished. The generator sleeps until shortly before the due
// time, then spins, and each request is timed from its due time: generator
// lag plus Response::total_ms. A stalled generator therefore shows as
// latency instead of hiding as a lower offered rate. A collector thread
// waits for the futures in order and checks every answer against
// knn::knn_scan.
//
// Closed window (traced run only): the generator keeps a fixed number of
// requests outstanding (fewer than the queue holds, so nothing is shed) and
// counts completions; that is the server's saturation throughput.

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "serve/server.hpp"
#include "util/bitvector.hpp"
#include "util/stats.hpp"
#include "yardstick.hpp"

namespace ledger {
namespace {

using apss::serve::KnnServer;
using apss::serve::Response;
using apss::serve::ResponseCode;
using apss::util::BitVector;
using apss::util::percentile;

constexpr std::size_t kWindow = 128;  // closed-window outstanding requests

std::unique_ptr<KnnServer> start_server(const WorkloadSpec& spec,
                                        const Inputs& in,
                                        const std::string& cache_dir,
                                        double* seconds) {
  apss::serve::ServerOptions o;
  o.engine = engine_options(spec, 1, cache_dir);
  o.k = spec.k;
  o.workers = 2;
  o.max_batch = spec.batch;
  o.batch_window_ms = 0.5;
  // No request may be shed: a busy shared host can stall the workers for
  // longer than 1024 requests' worth (85 ms at 12k q/s), and did. 16384
  // holds 1.4 s of arrivals; the backlog then shows as latency instead.
  o.max_queue_depth = 16384;
  o.max_inflight = 16384;
  const Clock::time_point t0 = Clock::now();
  auto server = std::make_unique<KnnServer>(in.data, o);
  *seconds = seconds_between(t0, Clock::now());
  return server;
}

Clock::duration span_of(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

struct Request {
  Clock::time_point due, submit_begin, submit_end;
  std::size_t query = 0;
  std::future<Response> future;
  // Filled by the collector.
  ResponseCode code = ResponseCode::kInternal;
  bool right = false;
  double queue_ms = 0;
  double total_ms = 0;
  std::uint64_t batch_seq = 0;
};

struct OpenLoop {
  std::vector<Request> requests;
  std::size_t first_kept = 0;  ///< earlier requests are warm-up
  apss::serve::ServerStats stats;
  std::size_t wrong = 0;
  std::size_t failed = 0;  ///< any code but kOk
  std::size_t shed = 0;    ///< kOverloaded
};

/// With `scan_ratios`, the collector also times the yardstick on every
/// fourth kept batch as soon as the batch's last answer is in. It divides
/// each later kept request's execution time (its batch's start to its
/// answer: Response::total_ms - queue_ms) by the latest scan's time for as
/// many queries as that batch held. Latency from the due time is not
/// divided: when the shared host slows, queueing makes it grow out of
/// proportion with any scan (README.md).
OpenLoop open_loop(KnnServer& server, const WorkloadSpec& spec,
                   const Inputs& in, const std::vector<BitVector>& pool,
                   double rate, double seconds,
                   std::vector<double>* scan_ratios = nullptr) {
  OpenLoop run;
  const std::size_t total =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  run.requests.resize(total);
  run.first_kept = total / 10;
  std::atomic<std::size_t> published{0};
  std::atomic<bool> abandoned{false};  // the generator failed
  std::exception_ptr collector_error;
  const auto collect = [&] {
    BinaryDataset batch(0, spec.dims);
    std::uint64_t batch_seq = 0;
    double scan_ms_per_query = 0;  // latest scan; 0 until the first
    Answers yard;
    Yardstick yardstick(1);
    for (std::size_t i = 0; i < total; ++i) {
      while (published.load(std::memory_order_acquire) <= i) {
        if (abandoned.load()) {
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      Request& r = run.requests[i];
      const Response response = r.future.get();
      r.code = response.code;
      r.right = response.ok() && response.neighbors == in.expected[r.query];
      r.queue_ms = response.queue_ms;
      r.total_ms = response.total_ms;
      r.batch_seq = response.batch_seq;
      if (scan_ratios == nullptr || !response.ok() || i < run.first_kept) {
        continue;
      }
      // A batch holds consecutive requests: the queue is FIFO and one
      // thread submits.
      if (r.batch_seq != batch_seq) {
        if (batch_seq % 4 == 0 && !batch.empty()) {
          const Clock::time_point t0 = Clock::now();
          yardstick.scan(in.data, batch, spec.k, yard);
          scan_ms_per_query = ms_between(t0, Clock::now()) /
                              static_cast<double>(batch.size());
        }
        batch = BinaryDataset(0, spec.dims);
        batch_seq = r.batch_seq;
      }
      batch.push_back(pool[r.query]);
      if (scan_ms_per_query > 0) {
        scan_ratios->push_back(
            (r.total_ms - r.queue_ms) /
            (scan_ms_per_query * static_cast<double>(response.batch_size)));
      }
    }
  };
  std::thread collector([&] {
    try {
      collect();
    } catch (...) {
      collector_error = std::current_exception();
    }
  });
  try {
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t i = 0; i < total; ++i) {
      Request& r = run.requests[i];
      r.query = i % pool.size();
      BitVector query = pool[r.query];
      r.due = start + span_of(static_cast<double>(i) / rate);
      if (r.due - Clock::now() > std::chrono::microseconds(200)) {
        std::this_thread::sleep_until(r.due - std::chrono::microseconds(200));
      }
      while (Clock::now() < r.due) {
      }
      r.submit_begin = Clock::now();
      r.future = server.submit(std::move(query));
      r.submit_end = Clock::now();
      published.store(i + 1, std::memory_order_release);
    }
  } catch (...) {
    abandoned = true;
    collector.join();
    throw;
  }
  collector.join();
  if (collector_error) {
    std::rethrow_exception(collector_error);
  }
  run.stats = server.stats();
  for (const Request& r : run.requests) {
    run.failed += r.code != ResponseCode::kOk;
    run.shed += r.code == ResponseCode::kOverloaded;
    run.wrong += r.code == ResponseCode::kOk && !r.right;
  }
  return run;
}

/// Latency from the due time, in ms, of the kept kOk requests.
std::vector<double> due_latency_ms(const OpenLoop& run) {
  std::vector<double> out;
  for (std::size_t i = run.first_kept; i < run.requests.size(); ++i) {
    const Request& r = run.requests[i];
    if (r.code == ResponseCode::kOk) {
      out.push_back(ms_between(r.due, r.submit_begin) + r.total_ms);
    }
  }
  return out;
}

struct ClosedWindow {
  double qps = 0;  ///< median over ten windows after the first tenth
  std::size_t attempted = 0;
  std::size_t wrong = 0;
  std::size_t failed = 0;
};

ClosedWindow closed_window(KnnServer& server, const Inputs& in,
                           const std::vector<BitVector>& pool,
                           double seconds) {
  ClosedWindow run;
  std::vector<std::future<Response>> ring(kWindow);
  std::vector<std::size_t> ring_query(kWindow);
  std::vector<Clock::time_point> done;
  const auto complete = [&](std::size_t slot) {
    const Response response = ring[slot].get();
    done.push_back(Clock::now());
    ++run.attempted;
    run.failed += !response.ok();
    run.wrong +=
        response.ok() && response.neighbors != in.expected[ring_query[slot]];
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + span_of(seconds);
  std::size_t i = 0;
  for (; Clock::now() < end; ++i) {
    const std::size_t slot = i % kWindow;
    if (i >= kWindow) {
      complete(slot);
    }
    ring_query[slot] = i % pool.size();
    ring[slot] = server.submit(pool[ring_query[slot]]);
  }
  for (std::size_t j = i >= kWindow ? i - kWindow : 0; j < i; ++j) {
    complete(j % kWindow);
  }
  const Clock::time_point kept = start + span_of(seconds / 10);
  const double window_s = 0.09 * seconds;
  std::vector<double> rates(10, 0.0);
  for (const Clock::time_point t : done) {
    const double at = seconds_between(kept, t);
    if (at >= 0 && at < 10 * window_s) {
      rates[static_cast<std::size_t>(at / window_s)] += 1.0 / window_s;
    }
  }
  run.qps = median(rates);
  return run;
}

std::vector<BitVector> query_pool(const Inputs& in) {
  std::vector<BitVector> pool;
  for (std::size_t q = 0; q < in.queries.size(); ++q) {
    pool.push_back(in.queries.vector(q));
  }
  return pool;
}

struct PhaseNames {
  const char* prefix;
  const char* request;
  const char* lag;
  const char* submit;
  const char* queue;
  const char* exec;
};

constexpr PhaseNames kLight{"serve.light.", "serve.light.request",
                            "serve.light.lag", "serve.light.submit",
                            "serve.light.queue", "serve.light.exec"};
constexpr PhaseNames kHeavy{"serve.heavy.", "serve.heavy.request",
                            "serve.heavy.lag", "serve.heavy.submit",
                            "serve.heavy.queue", "serve.heavy.exec"};

/// Rebuilds each kept request's spans from its timestamps and Response
/// fields, and reports the phase's per-layer metrics.
void report_phase(const PhaseNames& names, const OpenLoop& run,
                  Tracer& tracer, Results& out) {
  std::vector<double> lag_ms, queue_ms, exec_ms, submit_us;
  for (std::size_t i = run.first_kept; i < run.requests.size(); ++i) {
    const Request& r = run.requests[i];
    if (r.code != ResponseCode::kOk) {
      continue;
    }
    const auto at = [&](double ms) {
      return r.submit_begin + span_of(ms / 1e3);
    };
    const Tracer::SpanId root =
        tracer.record(names.request, i, Tracer::kRoot, r.due, at(r.total_ms));
    tracer.record(names.lag, i, root, r.due, r.submit_begin);
    tracer.record(names.submit, i, root, r.submit_begin, r.submit_end);
    tracer.record(names.queue, i, root, r.submit_begin, at(r.queue_ms));
    tracer.record(names.exec, r.batch_seq, root, at(r.queue_ms),
                  at(r.total_ms));
    lag_ms.push_back(ms_between(r.due, r.submit_begin));
    queue_ms.push_back(r.queue_ms);
    exec_ms.push_back(r.total_ms - r.queue_ms);
    submit_us.push_back(ms_between(r.submit_begin, r.submit_end) * 1e3);
  }
  const std::vector<double> latency = due_latency_ms(run);
  const std::string p = names.prefix;
  out.metric(p + "latency_p50_ms", percentile(latency, 50), "ms");
  out.metric(p + "latency_p99_ms", percentile(latency, 99), "ms");
  out.metric(p + "queue_ms_p50", percentile(queue_ms, 50), "ms");
  out.metric(p + "queue_ms_p99", percentile(queue_ms, 99), "ms");
  out.metric(p + "exec_ms_p50", percentile(exec_ms, 50), "ms");
  out.metric(p + "exec_ms_p99", percentile(exec_ms, 99), "ms");
  out.metric(p + "submit_us_p99", percentile(submit_us, 99), "us");
  out.metric(p + "batch_occupancy_mean", run.stats.mean_batch_occupancy(),
             "count");
  out.metric(p + "queue_high_water",
             static_cast<double>(run.stats.queue_high_water), "count");
  out.metric(p + "shed", static_cast<double>(run.shed), "count");
  out.metric(p + "generator_lag_ms_p99", percentile(lag_ms, 99), "ms");
}

}  // namespace

void run_serve(const WorkloadSpec& spec, const Inputs& in, double seconds,
               Scratch& scratch, Results& out) {
  const std::vector<BitVector> pool = query_pool(in);
  // Set-up: cold starts into empty artifact caches (the first worker
  // compiles and stores, the second loads), all but the last in child
  // processes, then warm starts from the last cache.
  std::vector<double> cold, warm;
  std::string dir;
  for (std::size_t r = 0; r < spec.cold_builds; ++r) {
    dir = scratch.fresh_dir();
    const auto start = [&] {
      double s = 0;
      start_server(spec, in, dir, &s);
      return s;
    };
    cold.push_back(r + 1 < spec.cold_builds ? cold_start_in_child(start)
                                            : start());
  }
  std::unique_ptr<KnnServer> server;
  for (std::size_t r = 0; r < spec.warm_builds; ++r) {
    server.reset();
    double s = 0;
    server = start_server(spec, in, dir, &s);
    warm.push_back(s);
  }

  std::vector<double> ratios;
  const OpenLoop run = open_loop(*server, spec, in, pool, spec.heavy_qps,
                                 seconds, &ratios);
  const std::vector<double> latency = due_latency_ms(run);
  out.metric("scan_ratio", median(ratios), "x");
  out.metric("setup_s", median(cold), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.info("scan_ratio_p99", windowed_percentile(ratios, 99), "x");
  out.info("latency_p50_ms", percentile(latency, 50), "ms");
  out.info("latency_p99_ms", percentile(latency, 99), "ms");
  out.info("warm_setup_s", median(warm), "s");
  out.info("requests", static_cast<double>(latency.size()), "count");
  out.operations(run.requests.size(), run.wrong, run.failed);
}

void run_serve_layers(const WorkloadSpec& spec, const Inputs& in,
                      double budget_s, Scratch& scratch, Tracer& tracer,
                      Results& out) {
  const std::vector<BitVector> pool = query_pool(in);
  const std::string dir = scratch.fresh_dir();
  double unused = 0;
  start_server(spec, in, dir, &unused);  // warms the artifact cache

  // Workloads with fixed rates run them; the others run a quarter and half
  // of the saturation throughput measured here.
  const ClosedWindow saturation = closed_window(
      *start_server(spec, in, dir, &unused), in, pool, 0.2 * budget_s);
  out.operations(saturation.attempted, saturation.wrong, saturation.failed);
  const bool fixed = spec.heavy_qps > 0;
  const double light = fixed ? spec.light_qps : 0.25 * saturation.qps;
  const double heavy = fixed ? spec.heavy_qps : 0.5 * saturation.qps;
  for (const auto& [names, rate] :
       {std::pair{kLight, light}, std::pair{kHeavy, heavy}}) {
    const OpenLoop run = open_loop(*start_server(spec, in, dir, &unused),
                                   spec, in, pool, rate, 0.4 * budget_s);
    report_phase(names, run, tracer, out);
    out.operations(run.requests.size(), run.wrong, run.failed);
  }
  out.metric("serve.saturation_qps", saturation.qps, "1/s");
}

}  // namespace ledger
