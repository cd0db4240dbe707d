// bench_ledger: runs one ledger workload and prints its metrics.
//
//   bench_ledger --workload=NAME --seed=N --seconds=S --work-dir=DIR
//                [--trace=DIR] [--smoke]
//
// Without --trace it measures the end-to-end metrics with tracing off; with
// --trace it runs the layer probes with spans on, reports the per-layer
// metrics, and writes DIR/NAME.trace.json (Chrome trace) and
// DIR/NAME.summary.json (count, total, self, p50, p99 per span name).
// stdout: a context line, one JSON line per metric, then the result object
// {"correct", "attempted", "failed", "metrics"}. run.py is the entry point
// that builds this binary and runs it.

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "apsim/lane_word.hpp"
#include "ledger.hpp"
#include "util/stats.hpp"

namespace ledger {
namespace {

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

bool find_workload(const std::string& name, bool smoke, WorkloadSpec* out) {
  WorkloadSpec s;
  s.name = name;
  if (name == "fig8-batch") {
    s.n = 1024, s.dims = 128, s.batch = 32, s.k = 10, s.threads = 1;
    s.cold_builds = 7, s.warm_builds = 15, s.pool_queries = 2048;
  } else if (name == "multi-config-batch") {
    s.n = 16384, s.dims = 128, s.batch = 64, s.k = 100;
    s.threads = parallel_threads();
    s.cold_builds = 5, s.warm_builds = 15, s.pool_queries = 1024;
  } else if (name == "serve-open-loop") {
    s.n = 1024, s.dims = 128, s.batch = 32, s.k = 10, s.threads = 1;
    s.cold_builds = 5, s.warm_builds = 15, s.pool_queries = 4096;
    s.serve = true, s.light_qps = 8000, s.heavy_qps = 12000;
  } else if (name == "packed-cold-start") {
    s.n = 16384, s.dims = 128, s.clusters = 64, s.batch = 32, s.k = 10;
    s.threads = 1, s.packing = 8;
    s.cold_builds = 8, s.warm_builds = 15, s.pool_queries = 1024;
  } else {
    return false;
  }
  if (smoke) {
    // Same code paths at toy sizes: several configurations still form.
    s.n = 96, s.dims = 32, s.batch = 4, s.k = 4, s.pool_queries = 16;
    s.cold_builds = 1, s.warm_builds = 1;
    s.max_per_config = name == "multi-config-batch"  ? 32
                       : name == "packed-cold-start" ? 48
                                                     : 0;
    s.packing = s.packing == 0 ? 0 : 4;
    s.light_qps = 200, s.heavy_qps = 400;
  }
  *out = s;
  return true;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  in.data = spec.clusters == 0
                ? BinaryDataset::uniform(spec.n, spec.dims, seed)
                : BinaryDataset::clustered(spec.n, spec.dims, spec.clusters,
                                           0.1, seed);
  // Queries are dataset rows with 10% of their bits flipped, so each has
  // near neighbours, as a real query would.
  in.queries = apss::knn::perturbed_queries(in.data, spec.pool_queries, 0.1,
                                            seed ^ 0x9e3779b97f4a7c15ULL);
  for (std::size_t b = 0; b * spec.batch < in.queries.size(); ++b) {
    const std::size_t lo = b * spec.batch;
    const std::size_t count = std::min(spec.batch, in.queries.size() - lo);
    BinaryDataset batch(count, spec.dims);
    for (std::size_t i = 0; i < count; ++i) {
      const auto src = in.queries.row(lo + i);
      std::copy(src.begin(), src.end(), batch.row(i).begin());
    }
    in.batches.push_back(std::move(batch));
  }
  in.expected.reserve(in.queries.size());
  for (std::size_t q = 0; q < in.queries.size(); ++q) {
    in.expected.push_back(
        apss::knn::knn_scan(in.data, in.queries.row(q), spec.k));
  }
  return in;
}

std::size_t count_wrong(const Inputs& in, std::size_t b, const Answers& got) {
  const std::size_t first = b * in.batches.front().size();
  std::size_t wrong = got.size() == in.batches[b].size()
                          ? 0
                          : in.batches[b].size();
  for (std::size_t i = 0; i < std::min(got.size(), in.batches[b].size());
       ++i) {
    wrong += got[i] != in.expected[first + i];
  }
  return wrong;
}

Scratch::Scratch(std::filesystem::path root) : root_(std::move(root)) {
  std::filesystem::remove_all(root_);
  std::filesystem::create_directories(root_);
}

Scratch::~Scratch() {
  std::error_code ec;
  std::filesystem::remove_all(root_, ec);
}

std::string Scratch::fresh_dir() {
  const std::filesystem::path dir = root_ / ("cache" + std::to_string(next_++));
  std::filesystem::create_directories(dir);
  return dir.string();
}

void Results::metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics_.push_back({name, value, unit, true});
}

void Results::info(const std::string& name, double value,
                   const std::string& unit) {
  metrics_.push_back({name, value, unit, false});
}

void Results::operations(std::size_t attempted, std::size_t wrong,
                         std::size_t failed) {
  attempted_ += attempted;
  wrong_ += wrong;
  failed_ += failed;
}

void Results::print() const {
  const apss::apsim::LaneKernels lanes = apss::apsim::resolve_lane_kernels();
  cpu_set_t set;
  const std::size_t nproc =
      sched_getaffinity(0, sizeof(set), &set) == 0
          ? static_cast<std::size_t>(CPU_COUNT(&set))
          : 0;
  std::printf(
      "{\"context\":{\"workload\":\"%s\",\"nproc\":%zu,"
      "\"hardware_threads\":%u,\"lane_width_bits\":%zu,\"lane_isa\":\"%s\","
      "\"build_type\":\"%s\",\"compiler\":\"%s\"}}\n",
      workload_.c_str(), nproc, std::thread::hardware_concurrency(),
      lanes.width_bits(), lanes.isa, LEDGER_BUILD_TYPE, __VERSION__);
  std::string all;
  for (const Metric& m : metrics_) {
    const std::string value = number(m.value);
    std::printf("{\"workload\":\"%s\",\"metric\":\"%s\",\"value\":%s,"
                "\"unit\":\"%s\",\"gated\":%s}\n",
                workload_.c_str(), m.name.c_str(), value.c_str(),
                m.unit.c_str(), m.gated ? "true" : "false");
    if (m.gated) {
      all.append(all.empty() ? "\"" : ",\"").append(m.name).append("\":");
      all.append("{\"value\":" + value + ",\"unit\":\"" + m.unit + "\"}");
    }
  }
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
              "\"metrics\":{%s}}\n",
              wrong_ == 0 ? "true" : "false", attempted_, wrong_ + failed_,
              all.c_str());
  std::fflush(stdout);
}

apss::core::EngineOptions engine_options(const WorkloadSpec& spec,
                                         std::size_t threads,
                                         const std::string& cache_dir) {
  apss::core::EngineOptions o;
  o.backend = apss::core::SimulationBackend::kBitParallel;
  o.threads = threads;
  o.packing_group_size = spec.packing;
  o.max_vectors_per_config = spec.max_per_config;
  o.artifact_cache_dir = cache_dir;
  return o;
}

std::size_t parallel_threads() {
  cpu_set_t set;
  std::size_t cpus = std::thread::hardware_concurrency();
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::clamp<std::size_t>(cpus, 1, 2);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : apss::util::median(xs);
}

double windowed_percentile(const std::vector<double>& xs, double p) {
  // One window a second at the default run length where the rate allows;
  // at least 1000 values each, so ten lie beyond a window's p99.
  const std::size_t windows =
      std::clamp<std::size_t>(xs.size() / 1000, 1, 20);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows && !xs.empty(); ++w) {
    const std::size_t lo = w * xs.size() / windows;
    const std::size_t hi = (w + 1) * xs.size() / windows;
    per_window.push_back(apss::util::percentile(
        std::span<const double>(xs).subspan(lo, hi - lo), p));
  }
  return median(per_window);
}

double cold_start_in_child(const std::function<double()>& start) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("pipe failed");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    double seconds = 0;
    try {
      seconds = start();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_ledger: cold start: %s\n", e.what());
      _exit(1);
    } catch (...) {
      _exit(1);
    }
    const bool sent =
        write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = 0;
  const bool got = read(fds[0], &seconds, sizeof(seconds)) == sizeof(seconds);
  close(fds[0]);
  int status = 0;
  const bool waited = waitpid(pid, &status, 0) == pid;
  if (!got || !waited || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("a cold start failed in its child process");
  }
  return seconds;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace ledger

namespace {

bool take(const std::string& arg, const char* key, std::string* value) {
  const std::string prefix = std::string(key) + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *value = arg.substr(prefix.size());
  return true;
}

void write_summary(const std::string& path, const std::string& workload,
                   const ledger::Tracer& tracer) {
  std::ofstream out(path);
  out << "{\"workload\":\"" << workload << "\",\"layers\":[";
  bool first = true;
  for (const ledger::Tracer::Layer& l : tracer.summarize()) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << l.name
        << "\",\"count\":" << l.count << ",\"total_us\":" << l.total_us
        << ",\"self_us\":" << l.self_us << ",\"p50_us\":" << l.p50_us
        << ",\"p99_us\":" << l.p99_us << "}";
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, seed = "1", seconds = "10", work_dir, trace_dir;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (!take(arg, "--workload", &workload) &&
               !take(arg, "--seed", &seed) &&
               !take(arg, "--seconds", &seconds) &&
               !take(arg, "--work-dir", &work_dir) &&
               !take(arg, "--trace", &trace_dir)) {
      std::cerr << "bench_ledger: unknown argument " << arg << "\n";
      return 2;
    }
  }
  char* seed_end = nullptr;
  char* seconds_end = nullptr;
  const std::uint64_t seed_value = std::strtoull(seed.c_str(), &seed_end, 10);
  const double run_seconds = std::strtod(seconds.c_str(), &seconds_end);
  ledger::WorkloadSpec spec;
  if (work_dir.empty() || *seed_end != '\0' || *seconds_end != '\0' ||
      !(run_seconds > 0) || !ledger::find_workload(workload, smoke, &spec)) {
    std::cerr << "usage: bench_ledger --workload=NAME --seed=N --seconds=S "
                 "--work-dir=DIR [--trace=DIR] [--smoke]\n";
    return 2;
  }

  try {
    const ledger::Inputs in = ledger::make_inputs(spec, seed_value);
    ledger::Scratch scratch(work_dir);
    ledger::Results out(spec.name);
    if (trace_dir.empty()) {
      if (spec.serve) {
        ledger::run_serve(spec, in, run_seconds, scratch, out);
      } else {
        ledger::run_batch(spec, in, run_seconds, scratch, out);
      }
    } else {
      ledger::Tracer tracer;
      ledger::run_batch_layers(spec, in, 0.55 * run_seconds, scratch, tracer,
                               out);
      ledger::run_serve_layers(spec, in, 0.45 * run_seconds, scratch, tracer,
                               out);
      std::filesystem::create_directories(trace_dir);
      const std::string base = trace_dir + "/" + spec.name;
      write_summary(base + ".summary.json", spec.name, tracer);
      if (!tracer.write_chrome_trace(base + ".trace.json", 100)) {
        throw std::runtime_error("cannot write " + base + ".trace.json");
      }
    }
    out.print();
  } catch (const std::exception& e) {
    std::cerr << "bench_ledger: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
