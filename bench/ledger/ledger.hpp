#pragma once
// Shared pieces of bench_ledger: the workload table, the seeded inputs with
// their knn::knn_scan answers, scratch directories, and the result sink that
// prints one JSON line per metric and the closing result object.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "knn/dataset.hpp"
#include "knn/exact.hpp"
#include "trace.hpp"

namespace ledger {

using apss::knn::BinaryDataset;
using apss::knn::Neighbor;
using Answers = std::vector<std::vector<Neighbor>>;

/// One workload's parameters (README.md says why each was chosen).
struct WorkloadSpec {
  std::string name;
  std::size_t n = 0;
  std::size_t dims = 0;
  std::size_t clusters = 0;  ///< 0: uniform bits; else clustered (flip 0.1)
  std::size_t batch = 32;    ///< queries per search() call, or max_batch
  std::size_t k = 10;
  std::size_t threads = 1;   ///< engine threads (per worker when serving)
  std::size_t packing = 0;   ///< EngineOptions::packing_group_size
  std::size_t max_per_config = 0;  ///< forces configurations (smoke sizes)
  std::size_t cold_builds = 3;     ///< set-ups behind setup_s's median
  std::size_t warm_builds = 3;     ///< set-ups behind warm_setup_s's median
  std::size_t pool_queries = 1024;  ///< distinct queries, cycled
  bool serve = false;
  /// Fixed open-loop rates of the serve phases; 0: derived from the
  /// measured saturation throughput.
  double light_qps = 0;
  double heavy_qps = 0;
};

/// Returns false when `name` is not a workload.
bool find_workload(const std::string& name, bool smoke, WorkloadSpec* out);

/// Everything a run gets from its seed.
struct Inputs {
  BinaryDataset data;
  BinaryDataset queries;              ///< the query pool
  std::vector<BinaryDataset> batches;  ///< the pool cut into search batches
  Answers expected;                    ///< knn::knn_scan per pool query
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Queries of batch `b` whose engine answers differ from knn::knn_scan's.
std::size_t count_wrong(const Inputs& in, std::size_t b, const Answers& got);

/// Fresh, empty directories (artifact caches) under one root, which is
/// removed when the run ends.
class Scratch {
 public:
  explicit Scratch(std::filesystem::path root);
  ~Scratch();
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  std::string fresh_dir();

 private:
  std::filesystem::path root_;
  std::size_t next_ = 0;
};

/// Collects metrics and operation counts for the closing result line.
class Results {
 public:
  explicit Results(std::string workload) : workload_(std::move(workload)) {}

  /// A metric of BENCHMARK.json: printed and part of the result object.
  void metric(const std::string& name, double value, const std::string& unit);
  /// A number printed for the record only (absolute times whose run-to-run
  /// spread on a shared host exceeds any bound; README.md).
  void info(const std::string& name, double value, const std::string& unit);
  /// `attempted` operations of which `wrong` gave an answer unequal to
  /// knn::knn_scan and `failed` did not answer (shed, error).
  void operations(std::size_t attempted, std::size_t wrong,
                  std::size_t failed);
  /// Prints the context line, one line per metric, and the result object.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool gated;
  };
  std::string workload_;
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t wrong_ = 0;
  std::size_t failed_ = 0;
};

/// Bit-parallel engine options for the workload, `threads` engine threads,
/// with the artifact cache at `cache_dir` (empty: no cache).
apss::core::EngineOptions engine_options(const WorkloadSpec& spec,
                                         std::size_t threads,
                                         const std::string& cache_dir);

/// min(2, CPUs this process may run on): the multi-threaded engine size.
/// A search waits for its slowest thread, so one with as many threads as the
/// shared host has CPUs slows whenever a neighbour takes one: at 4 threads on
/// 4 CPUs, multi-config-batch's p99 doubled during such spells.
std::size_t parallel_threads();

double seconds_between(Clock::time_point a, Clock::time_point b);
double median(std::vector<double> xs);
/// Cuts `xs` (in the order measured) into up to 20 consecutive windows of
/// at least 1000 values each and returns the median of their `p`-th
/// percentiles, so a host stall lifts the percentile of one window, not the
/// run's value. With fewer than 2000 values it is the plain percentile.
double windowed_percentile(const std::vector<double>& xs, double p);
/// Peak resident set (VmHWM) of this process in MB.
double peak_rss_mb();
/// Runs `start` (one cold start, returning its set-up seconds) in a child
/// process forked from this one and returns what it returned. The set-up
/// times every cold start but the last this way and runs the last in the
/// measured process, so each begins from the same heap. Repeated in one
/// process, each cold start's freed blocks change what the next keeps
/// resident, and the peak resident set swung 8% between seeds. Call it
/// before this process starts any thread.
double cold_start_in_child(const std::function<double()>& start);

// Workload runs (batch.cpp, serve.cpp). The untraced runs measure for
// `seconds` and report the end-to-end metrics; the layer runs spend about
// `budget_s`, report the per-layer metrics and fill the tracer.
void run_batch(const WorkloadSpec& spec, const Inputs& in, double seconds,
               Scratch& scratch, Results& out);
void run_serve(const WorkloadSpec& spec, const Inputs& in, double seconds,
               Scratch& scratch, Results& out);
void run_batch_layers(const WorkloadSpec& spec, const Inputs& in,
                      double budget_s, Scratch& scratch, Tracer& tracer,
                      Results& out);
void run_serve_layers(const WorkloadSpec& spec, const Inputs& in,
                      double budget_s, Scratch& scratch, Tracer& tracer,
                      Results& out);

}  // namespace ledger
