// apss_serve: the always-on kNN serving core on the command line
// (docs/ROBUSTNESS.md "Serving", ROADMAP item 2).
//
// Builds a synthetic n x d-bit dataset, compiles it into one resident
// engine that every worker shares (optionally through the artifact cache),
// then drives the server with an in-process open-loop load generator —
// requests arrive at a fixed rate regardless of completions, the arrival
// pattern that actually exposes overload behavior. The generator stands in for a network
// frontend; serve::KnnServer itself is transport-agnostic.
//
// Usage:
//   apss_serve [--dims=<d>] [--n=<vectors>] [--k=<neighbors>] [--seed=<s>]
//              [--backend=cycle|bit] [--threads=<N>]
//              [--artifact-cache=<dir>]
//              [--workers=<N>] [--max-batch=<N>] [--batch-window-ms=<ms>]
//              [--max-queue-depth=<N>] [--max-inflight=<N>]
//              [--watchdog-timeout-ms=<ms>]
//              [--qps=<arrivals/s>] [--duration-s=<s>] [--deadline-ms=<ms>]
//              [--status-every=<s>]
//              [--inject-fault=<site>[:<hit>[:<count>[:<key>]]]]
//
// SIGTERM/SIGINT begin a graceful drain: admission stops, in-flight work
// finishes (or deadlines out), and every outstanding future resolves.
// On exit the binary waits for EVERY submitted future, prints the response
// tally plus the final ServerStats snapshot, and verifies the zero-leak
// invariant: responses received == requests submitted and the server
// accounts for every one (stats().accounted()). The CI soak smoke runs
// this under injected faults and asserts the exit code.
//
// Exit codes:
//   0  clean run and clean drain (shed/deadline-exceeded responses are
//      still "clean" — they are typed outcomes, not failures)
//   1  unexpected runtime error
//   2  usage / invalid arguments
//   8  response leak: a future never resolved, resolved twice, or the
//      final stats do not account for every submitted request

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hpp"
#include "knn/dataset.hpp"
#include "serve/server.hpp"
#include "util/stats.hpp"

namespace {

using namespace apss;
using Clock = std::chrono::steady_clock;

enum ExitCode : int {
  kExitOk = 0,
  kExitRuntimeError = 1,
  kExitUsage = 2,
  kExitResponseLeak = 8,
};

/// SIGTERM/SIGINT request a graceful drain (an atomic store;
/// async-signal-safe). The load loop notices and stops submitting.
std::atomic<bool> g_stop{false};

void handle_stop_signal(int) { g_stop.store(true, std::memory_order_release); }

struct ServeFlags {
  cli::EngineFlags engine;
  std::size_t dims = 128;
  std::size_t n = 2048;
  std::size_t k = 10;
  std::uint64_t seed = 1;
  std::size_t workers = 1;
  std::size_t max_batch = 32;
  double batch_window_ms = 1.0;
  std::size_t max_queue_depth = 256;
  std::size_t max_inflight = 1024;
  double watchdog_timeout_ms = 5000;
  double qps = 200;
  double duration_s = 5;
  double deadline_ms = 0;   ///< per request; <= 0 = unlimited
  double status_every = 0;  ///< seconds; <= 0 = no periodic snapshots
};

void usage() {
  std::fprintf(
      stderr,
      "usage: apss_serve [--dims=<d>] [--n=<vectors>] [--k=<neighbors>]\n"
      "         [--seed=<s>] [--backend=cycle|bit] [--threads=<N>]\n"
      "         [--artifact-cache=<dir>] [--workers=<N>] [--max-batch=<N>]\n"
      "         [--batch-window-ms=<ms>] [--max-queue-depth=<N>]\n"
      "         [--max-inflight=<N>] [--watchdog-timeout-ms=<ms>]\n"
      "         [--qps=<arrivals/s>] [--duration-s=<s>] [--deadline-ms=<ms>]\n"
      "         [--status-every=<s>]\n"
      "         [--inject-fault=<site>[:<hit>[:<count>[:<key>]]]]\n");
}

int run(const ServeFlags& flags) {
  const auto data = knn::BinaryDataset::uniform(flags.n, flags.dims, flags.seed);
  serve::ServerOptions options;
  flags.engine.apply(&options.engine);
  options.k = flags.k;
  options.workers = flags.workers;
  options.max_batch = flags.max_batch;
  options.batch_window_ms = flags.batch_window_ms;
  options.max_queue_depth = flags.max_queue_depth;
  options.max_inflight = flags.max_inflight;
  options.watchdog_timeout_ms = flags.watchdog_timeout_ms;

  const auto compile_start = Clock::now();
  serve::KnnServer server(data, options);
  const double compile_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - compile_start)
          .count();
  std::printf("apss_serve: %zu vectors x %zu bits, k=%zu, %zu worker%s "
              "(engine resident, %.1f ms startup%s)\n",
              flags.n, flags.dims, flags.k, server.workers(),
              server.workers() == 1 ? "" : "s", compile_ms,
              flags.engine.artifact_cache_dir.empty() ? ""
                                                      : ", artifact cache");
  std::printf("apss_serve: open-loop load %.0f qps for %.1f s "
              "(queue<=%zu, inflight<=%zu, batch<=%zu/%.1fms)\n",
              flags.qps, flags.duration_s, flags.max_queue_depth,
              flags.max_inflight, flags.max_batch, flags.batch_window_ms);

  // A pool of realistic queries (dataset vectors with bit noise), cycled by
  // the load loop so submissions cost nothing to produce.
  const auto query_pool =
      knn::perturbed_queries(data, 64, 0.1, flags.seed + 1);

  // Periodic health snapshots on their own thread so a saturated load loop
  // cannot starve them.
  std::thread status_thread;
  std::atomic<bool> status_stop{false};
  if (flags.status_every > 0) {
    status_thread = std::thread([&] {
      const auto period = std::chrono::duration<double>(flags.status_every);
      auto next = Clock::now() + std::chrono::duration_cast<Clock::duration>(period);
      while (!status_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (Clock::now() < next) {
          continue;
        }
        next += std::chrono::duration_cast<Clock::duration>(period);
        std::ostringstream os;
        os << server.stats();
        std::printf("%s\n", os.str().c_str());
        std::fflush(stdout);
      }
    });
  }

  // Open loop: arrivals at fixed instants, independent of completions.
  std::vector<std::future<serve::Response>> futures;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / std::max(flags.qps, 1e-3)));
  const auto load_start = Clock::now();
  const auto load_end =
      load_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(flags.duration_s));
  auto next_arrival = load_start;
  std::size_t i = 0;
  while (!g_stop.load(std::memory_order_acquire) &&
         Clock::now() < load_end) {
    std::this_thread::sleep_until(next_arrival);
    next_arrival += interval;
    futures.push_back(server.submit(
        query_pool.vector(i % query_pool.size()), flags.deadline_ms));
    ++i;
  }

  const bool interrupted = g_stop.load(std::memory_order_acquire);
  std::printf("apss_serve: %s after %zu submissions, draining...\n",
              interrupted ? "stop signal" : "load complete", futures.size());
  std::fflush(stdout);
  server.drain();

  // Every future MUST resolve now that drain returned; wait_for(0) makes a
  // leak a typed failure instead of a hang.
  std::uint64_t tally[8] = {};
  std::uint64_t unresolved = 0;
  std::vector<double> ok_latency_ms;
  for (auto& future : futures) {
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++unresolved;
      continue;
    }
    const serve::Response response = future.get();
    ++tally[static_cast<std::size_t>(response.code)];
    if (response.ok()) {
      ok_latency_ms.push_back(response.total_ms);
    }
  }

  status_stop.store(true, std::memory_order_release);
  if (status_thread.joinable()) {
    status_thread.join();
  }

  const serve::ServerStats stats = server.stats();
  std::ostringstream os;
  os << stats;
  std::printf("%s\n", os.str().c_str());
  std::printf("responses: %llu ok, %llu overloaded, %llu deadline-exceeded, "
              "%llu shutting-down, %llu internal, %llu other\n",
              static_cast<unsigned long long>(
                  tally[static_cast<int>(serve::ResponseCode::kOk)]),
              static_cast<unsigned long long>(
                  tally[static_cast<int>(serve::ResponseCode::kOverloaded)]),
              static_cast<unsigned long long>(tally[static_cast<int>(
                  serve::ResponseCode::kDeadlineExceeded)]),
              static_cast<unsigned long long>(tally[static_cast<int>(
                  serve::ResponseCode::kShuttingDown)]),
              static_cast<unsigned long long>(
                  tally[static_cast<int>(serve::ResponseCode::kInternal)]),
              static_cast<unsigned long long>(
                  tally[static_cast<int>(serve::ResponseCode::kCancelled)] +
                  tally[static_cast<int>(
                      serve::ResponseCode::kInvalidArgument)]));
  if (!ok_latency_ms.empty()) {
    std::printf("latency (ok): p50 %.2f ms, p99 %.2f ms over %zu responses\n",
                util::percentile(ok_latency_ms, 50),
                util::percentile(ok_latency_ms, 99),
                ok_latency_ms.size());
  }

  // The zero-leak invariant the soak smoke asserts: every submitted
  // request produced exactly one response, and the server's own accounting
  // agrees.
  if (unresolved > 0) {
    std::fprintf(stderr,
                 "RESPONSE LEAK: %llu futures unresolved after drain\n",
                 static_cast<unsigned long long>(unresolved));
    return kExitResponseLeak;
  }
  if (stats.submitted != futures.size() || !stats.accounted()) {
    std::fprintf(stderr,
                 "RESPONSE LEAK: submitted %llu futures but server counted "
                 "%llu submitted / %llu resolved / %zu in flight\n",
                 static_cast<unsigned long long>(futures.size()),
                 static_cast<unsigned long long>(stats.submitted),
                 static_cast<unsigned long long>(stats.resolved_total()),
                 stats.inflight);
    return kExitResponseLeak;
  }
  std::printf("drain clean: %llu/%llu requests accounted, zero leaks\n",
              static_cast<unsigned long long>(stats.resolved_total()),
              static_cast<unsigned long long>(stats.submitted));
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  ServeFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    unsigned long long v = 0;
    std::string flag_error;
    const cli::FlagParse shared =
        cli::try_parse_engine_flag(arg, &flags.engine, &flag_error);
    if (shared == cli::FlagParse::kError) {
      std::fprintf(stderr, "%s\n", flag_error.c_str());
      usage();
      return kExitUsage;
    }
    if (shared == cli::FlagParse::kParsed) {
      continue;
    }
    const auto uint_flag = [&](const char* name, std::size_t prefix,
                               std::size_t* out, bool positive) {
      if (!cli::parse_uint(arg.substr(prefix), &v) || (positive && v == 0)) {
        std::fprintf(stderr, "%s needs a %s integer\n", name,
                     positive ? "positive" : "non-negative");
        return false;
      }
      *out = static_cast<std::size_t>(v);
      return true;
    };
    bool ok = true;
    if (arg.rfind("--dims=", 0) == 0) {
      ok = uint_flag("--dims", 7, &flags.dims, true);
    } else if (arg.rfind("--n=", 0) == 0) {
      ok = uint_flag("--n", 4, &flags.n, true);
    } else if (arg.rfind("--k=", 0) == 0) {
      ok = uint_flag("--k", 4, &flags.k, true);
    } else if (arg.rfind("--seed=", 0) == 0) {
      ok = cli::parse_uint(arg.substr(7), &v);
      flags.seed = v;
      if (!ok) {
        std::fprintf(stderr, "--seed needs a non-negative integer\n");
      }
    } else if (arg.rfind("--workers=", 0) == 0) {
      ok = uint_flag("--workers", 10, &flags.workers, true);
    } else if (arg.rfind("--max-batch=", 0) == 0) {
      ok = uint_flag("--max-batch", 12, &flags.max_batch, true);
    } else if (arg.rfind("--max-queue-depth=", 0) == 0) {
      ok = uint_flag("--max-queue-depth", 18, &flags.max_queue_depth, true);
    } else if (arg.rfind("--max-inflight=", 0) == 0) {
      ok = uint_flag("--max-inflight", 15, &flags.max_inflight, true);
    } else if (arg.rfind("--batch-window-ms=", 0) == 0) {
      ok = cli::parse_positive_double(arg.substr(18), &flags.batch_window_ms);
      if (!ok) {
        std::fprintf(stderr, "--batch-window-ms needs a positive duration\n");
      }
    } else if (arg.rfind("--watchdog-timeout-ms=", 0) == 0) {
      ok = cli::parse_positive_double(arg.substr(22),
                                      &flags.watchdog_timeout_ms);
      if (!ok) {
        std::fprintf(stderr,
                     "--watchdog-timeout-ms needs a positive duration\n");
      }
    } else if (arg.rfind("--qps=", 0) == 0) {
      ok = cli::parse_positive_double(arg.substr(6), &flags.qps);
      if (!ok) {
        std::fprintf(stderr, "--qps needs a positive rate\n");
      }
    } else if (arg.rfind("--duration-s=", 0) == 0) {
      ok = cli::parse_positive_double(arg.substr(13), &flags.duration_s);
      if (!ok) {
        std::fprintf(stderr, "--duration-s needs a positive duration\n");
      }
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      ok = cli::parse_positive_double(arg.substr(14), &flags.deadline_ms);
      if (!ok) {
        std::fprintf(stderr, "--deadline-ms needs a positive duration\n");
      }
    } else if (arg.rfind("--status-every=", 0) == 0) {
      ok = cli::parse_positive_double(arg.substr(15), &flags.status_every);
      if (!ok) {
        std::fprintf(stderr, "--status-every needs a positive period\n");
      }
    } else if (arg.rfind("--inject-fault=", 0) == 0) {
      ok = cli::arm_injected_fault(arg.substr(15));
      if (!ok) {
        std::fprintf(stderr,
                     "--inject-fault needs SITE[:HIT[:COUNT[:KEY]]]\n");
      }
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      ok = false;
    }
    if (!ok) {
      usage();
      return kExitUsage;
    }
  }
  try {
    return run(flags);
  } catch (const std::invalid_argument& ex) {
    std::fprintf(stderr, "invalid arguments: %s\n", ex.what());
    return kExitUsage;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return kExitRuntimeError;
  }
}
