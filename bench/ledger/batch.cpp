// Batch workloads: closed-loop search() calls from one caller.
//
// run_batch measures the end-to-end metrics with tracing off. Every call's
// answers are compared with knn::knn_scan's outside the timed region, and
// its time is divided by a yardstick scan timed next to it (scan_ratio).
//
// run_batch_layers is the traced run. Per batch it records a 1-thread
// core.engine.search span and, beside it, a replay of the same batch on the
// engine's own compiled programs: SymbolStreamEncoder::append_query, then
// BatchSimulator::run, then TemporalSortDecoder::decode per configuration,
// then the host merge. The replay's answers must equal the engine's.

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apsim/batch_simulator.hpp"
#include "apsim/simulator.hpp"
#include "core/artifact_cache.hpp"
#include "core/stream.hpp"
#include "core/temporal_decode.hpp"
#include "ledger.hpp"
#include "util/stats.hpp"
#include "yardstick.hpp"

namespace ledger {
namespace {

using apss::core::ApKnnEngine;

std::unique_ptr<ApKnnEngine> build(const WorkloadSpec& spec, const Inputs& in,
                                   std::size_t threads,
                                   const std::string& cache_dir,
                                   double* seconds) {
  const Clock::time_point t0 = Clock::now();
  auto engine = std::make_unique<ApKnnEngine>(
      in.data, engine_options(spec, threads, cache_dir));
  *seconds = seconds_between(t0, Clock::now());
  return engine;
}

double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

std::vector<std::uint8_t> encode(const apss::core::StreamSpec& stream_spec,
                                 const BinaryDataset& batch) {
  const apss::core::SymbolStreamEncoder encoder(stream_spec);
  std::vector<std::uint8_t> stream;
  for (std::size_t q = 0; q < batch.size(); ++q) {
    encoder.append_query(batch.row(q), stream);
  }
  return stream;
}

}  // namespace

void run_batch(const WorkloadSpec& spec, const Inputs& in, double seconds,
               Scratch& scratch, Results& out) {
  // Set-up: cold builds into empty artifact caches (compile + store), all
  // but the last in child processes, then warm builds that load from the
  // last cache. This process thus starts cold once, as a server would.
  std::vector<double> cold, warm;
  std::string dir;
  for (std::size_t r = 0; r < spec.cold_builds; ++r) {
    dir = scratch.fresh_dir();
    const auto start = [&] {
      double s = 0;
      build(spec, in, spec.threads, dir, &s);
      return s;
    };
    cold.push_back(r + 1 < spec.cold_builds ? cold_start_in_child(start)
                                            : start());
  }
  std::unique_ptr<ApKnnEngine> engine;
  for (std::size_t r = 0; r < spec.warm_builds; ++r) {
    engine.reset();
    double s = 0;
    engine = build(spec, in, spec.threads, dir, &s);
    warm.push_back(s);
  }

  // The yardstick scans the batch on as many threads as the engine uses,
  // right after every fourth call, and each call is divided by the latest
  // scan: the host's speed swings over tens of seconds, so only a scan timed
  // milliseconds away cancels them, and most of the run still goes to
  // search() calls for the p99. Absolute throughput is taken over windows
  // of search() time, so the scans and answer checks between calls do not
  // count against it.
  const double window_s = std::min(1.0, seconds / 10);
  std::vector<double> latency_s, ratios, window_qps;
  double last_scan_s = 0, w_search_s = 0;
  std::size_t w_queries = 0, attempted = 0, wrong = 0, b = 0;
  Answers yard;
  Yardstick yardstick(spec.threads);
  const auto call = [&](bool record) {
    const bool paired = b % 4 == 0;
    const std::size_t i = b++ % in.batches.size();
    const BinaryDataset& batch = in.batches[i];
    const Clock::time_point t0 = Clock::now();
    const Answers got = engine->search(batch, spec.k);
    const double search_s = since(t0);
    if (paired) {
      const Clock::time_point t1 = Clock::now();
      yardstick.scan(in.data, batch, spec.k, yard);
      last_scan_s = since(t1);
    }
    attempted += batch.size();
    wrong += count_wrong(in, i, got);
    if (!record) {
      return;
    }
    latency_s.push_back(search_s);
    ratios.push_back(search_s / last_scan_s);
    w_search_s += search_s;
    w_queries += batch.size();
    if (w_search_s >= window_s) {
      window_qps.push_back(static_cast<double>(w_queries) / w_search_s);
      w_search_s = 0;
      w_queries = 0;
    }
  };
  const Clock::time_point warmed = Clock::now() + std::chrono::duration_cast<
      Clock::duration>(std::chrono::duration<double>(window_s));
  while (Clock::now() < warmed) {
    call(false);
  }
  const Clock::time_point end = Clock::now() + std::chrono::duration_cast<
      Clock::duration>(std::chrono::duration<double>(seconds));
  while (Clock::now() < end || window_qps.empty()) {
    call(true);
  }

  using apss::util::percentile;
  out.metric("scan_ratio", median(ratios), "x");
  out.metric("setup_s", median(cold), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.info("scan_ratio_p99", windowed_percentile(ratios, 99), "x");
  out.info("qps", median(window_qps), "1/s");
  out.info("latency_p50_ms", percentile(latency_s, 50) * 1e3, "ms");
  out.info("latency_p99_ms", percentile(latency_s, 99) * 1e3, "ms");
  out.info("warm_setup_s", median(warm), "s");
  out.info("calls", static_cast<double>(latency_s.size()), "count");
  out.operations(attempted, wrong, 0);
}

void run_batch_layers(const WorkloadSpec& spec, const Inputs& in,
                      double budget_s, Scratch& scratch, Tracer& tracer,
                      Results& out) {
  namespace apsim = apss::apsim;
  namespace core = apss::core;
  std::size_t attempted = 0, wrong = 0;

  // Set-up layers: a plain compile, the cache's store and load paths per
  // configuration, and four frames of the cycle-accurate reference.
  double compile_s = 0, store_s = 0, load_s = 0, reference_us = 0;
  {
    const auto fresh = build(spec, in, spec.threads, "", &compile_s);
    const std::string slots = scratch.fresh_dir();
    const std::size_t capacity = fresh->capacity_per_config();
    for (std::size_t c = 0; c < fresh->configurations(); ++c) {
      const std::string path = slots + "/slot" + std::to_string(c);
      Clock::time_point t0 = Clock::now();
      std::string error;
      if (!fresh->save_artifact(c, path, &error)) {
        throw std::runtime_error("save_artifact: " + error);
      }
      store_s += since(t0);
      t0 = Clock::now();
      const core::CachedProgram cached = core::try_load_program(
          path, fresh->artifact_key(c),
          std::min(capacity, in.data.size() - c * capacity), spec.dims);
      load_s += since(t0);
      if (cached.outcome != core::ArtifactOutcome::kHit) {
        throw std::runtime_error("artifact did not load back: " +
                                 cached.detail);
      }
    }
    const BinaryDataset& first = in.batches.front();
    BinaryDataset four(std::min<std::size_t>(4, first.size()), spec.dims);
    for (std::size_t q = 0; q < four.size(); ++q) {
      std::copy(first.row(q).begin(), first.row(q).end(), four.row(q).begin());
    }
    const std::vector<std::uint8_t> stream = encode(fresh->stream_spec(), four);
    apsim::Simulator reference(
        fresh->network(0),
        apsim::SimOptions::from(apsim::DeviceConfig::gen1().features));
    const Clock::time_point t0 = Clock::now();
    const auto expected = reference.run(stream);
    reference_us = since(t0) * 1e6 / static_cast<double>(four.size());
    apsim::BatchSimulator batch(fresh->program(0));
    attempted += four.size();
    wrong += batch.run(stream) == expected ? 0 : four.size();
  }

  // Cache counters: a cold build into an empty cache, then the 1-thread
  // and N-thread engines the loop below uses, loaded from it.
  const std::string dir = scratch.fresh_dir();
  double unused = 0;
  const std::size_t misses =
      build(spec, in, spec.threads, dir, &unused)->backend_stats()
          .artifact.misses;
  const auto one = build(spec, in, 1, dir, &unused);
  const std::size_t hits = one->backend_stats().artifact.hits;
  const auto many = build(spec, in, parallel_threads(), dir, &unused);

  const core::StreamSpec stream_spec = one->stream_spec();
  const std::size_t configs = one->configurations();
  std::vector<double> untraced_ms, traced_ms, speedup;
  std::size_t queries = 0, exact = 0, cycles = 0, reports = 0;
  double lane_cycles = 0;
  Answers yard;
  Yardstick yardstick(1);
  const Clock::time_point loop_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(0.7 * budget_s));
  for (std::uint64_t id = 0; id == 0 || Clock::now() < loop_end; ++id) {
    const std::size_t b = id % in.batches.size();
    const BinaryDataset& batch = in.batches[b];
    const std::size_t q = batch.size();

    // Untraced and traced 1-thread searches, alternating which goes first;
    // their latency difference is the tracing overhead.
    Answers got;
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (id % 2 == 0);
      const Clock::time_point t0 = Clock::now();
      if (traced) {
        Scope span(tracer, "core.engine.search", id);
        got = one->search(batch, spec.k);
      } else {
        const Answers plain = one->search(batch, spec.k);
        wrong += count_wrong(in, b, plain);
      }
      (traced ? traced_ms : untraced_ms).push_back(since(t0) * 1e3);
    }
    const std::size_t got_wrong = count_wrong(in, b, got);
    exact += q - got_wrong;
    wrong += got_wrong;
    queries += q;
    attempted += 2 * q;
    cycles += one->last_stats().simulated_cycles;
    reports += one->last_stats().report_events;

    const Clock::time_point t0 = Clock::now();
    const Answers parallel = many->search(batch, spec.k);
    speedup.push_back(traced_ms.back() / (since(t0) * 1e3));
    wrong += count_wrong(in, b, parallel);
    attempted += q;

    Answers merged(q);
    {
      Scope replay(tracer, "ledger.replay", id);
      for (std::size_t c = 0; c < configs; ++c) {
        const auto program = one->program(c);
        if (program == nullptr) {
          throw std::runtime_error("configuration " + std::to_string(c) +
                                   " fell back to the cycle-accurate path");
        }
        apsim::BatchSimulator sim(program);
        lane_cycles += static_cast<double>(program->macro_count()) *
                       static_cast<double>(q * stream_spec.cycles_per_query());
        std::vector<std::uint8_t> stream;
        {
          Scope span(tracer, "core.stream.encode", id, replay.id());
          stream = encode(stream_spec, batch);
        }
        std::vector<apsim::ReportEvent> events;
        {
          Scope span(tracer, "apsim.batch.run", id, replay.id());
          events = sim.run(stream);
        }
        Answers partial;
        {
          Scope span(tracer, "core.temporal_decode.decode", id, replay.id());
          partial = core::TemporalSortDecoder(stream_spec, q)
                        .decode(events, spec.k);
        }
        Scope span(tracer, "ledger.merge", id, replay.id());
        for (std::size_t i = 0; i < q; ++i) {
          merged[i].insert(merged[i].end(), partial[i].begin(),
                           partial[i].end());
        }
      }
      Scope span(tracer, "ledger.merge", id, replay.id());
      for (auto& list : merged) {
        std::sort(list.begin(), list.end());
        list.resize(std::min(list.size(), spec.k));
      }
    }
    attempted += q;
    wrong += merged == got ? 0 : q;

    {
      Scope span(tracer, "knn.scan", id);
      for (std::size_t i = 0; i < q; ++i) {
        apss::knn::knn_scan(in.data, batch.row(i), spec.k);
      }
    }
    Scope span(tracer, "yardstick.scan", id);
    yardstick.scan(in.data, batch, spec.k, yard);
  }

  // Lane-width probe on configuration 0: one batch's stream at each width;
  // the report events must be identical at every width.
  double width_us[3] = {0, 0, 0};
  {
    const BinaryDataset& batch = in.batches.front();
    const std::vector<std::uint8_t> stream = encode(stream_spec, batch);
    const auto expected = apsim::BatchSimulator(one->program(0)).run(stream);
    const apsim::LaneWidth widths[3] = {apsim::LaneWidth::k64,
                                        apsim::LaneWidth::k256,
                                        apsim::LaneWidth::k512};
    for (int w = 0; w < 3; ++w) {
      apsim::BatchSimulator sim(one->program(0), widths[w]);
      std::size_t runs = 0;
      bool same = true;
      const Clock::time_point t0 = Clock::now();
      do {
        same = sim.run(stream) == expected && same;
        ++runs;
      } while (since(t0) < 0.05 * budget_s);
      width_us[w] = since(t0) * 1e6 /
                    static_cast<double>(runs * batch.size());
      attempted += batch.size();
      wrong += same ? 0 : batch.size();
    }
  }

  const double nq = static_cast<double>(queries);
  const double search_us = tracer.total_us("core.engine.search");
  const double encode_us = tracer.total_us("core.stream.encode");
  const double sim_us = tracer.total_us("apsim.batch.run");
  const double decode_us = tracer.total_us("core.temporal_decode.decode");
  out.metric("knn.scan_us_per_query", tracer.total_us("knn.scan") / nq, "us");
  out.metric("yardstick.us_per_query", tracer.total_us("yardstick.scan") / nq,
             "us");
  out.metric("core.stream.encode_us_per_query", encode_us / nq, "us");
  out.metric("apsim.batch.us_per_frame",
             sim_us / (nq * static_cast<double>(configs)), "us");
  out.metric("apsim.batch.w64.us_per_frame", width_us[0], "us");
  out.metric("apsim.batch.w256.us_per_frame", width_us[1], "us");
  out.metric("apsim.batch.w512.us_per_frame", width_us[2], "us");
  out.metric("apsim.batch.ns_per_lane_cycle", sim_us * 1e3 / lane_cycles,
             "ns");
  out.metric("apsim.reference.us_per_frame", reference_us, "us");
  out.metric("apsim.cycles_per_query", static_cast<double>(cycles) / nq,
             "count");
  out.metric("apsim.report_events_per_query",
             static_cast<double>(reports) / nq, "count");
  out.metric("core.temporal_decode.us_per_query", decode_us / nq, "us");
  out.metric("core.engine.search_us_per_query", search_us / nq, "us");
  out.metric("core.engine.residual_pct",
             100.0 * (search_us - encode_us - sim_us - decode_us) / search_us,
             "%");
  out.metric("core.engine.configurations", static_cast<double>(configs),
             "count");
  out.metric("core.engine.exact_match_pct",
             100.0 * static_cast<double>(exact) / nq, "%");
  out.metric("util.thread_pool.parallel_speedup", median(speedup), "x");
  out.metric("core.engine.compile_s", compile_s, "s");
  out.metric("core.artifact_cache.store_s", store_s, "s");
  out.metric("core.artifact_cache.load_s", load_s, "s");
  out.metric("core.artifact_cache.hits", static_cast<double>(hits), "count");
  out.metric("core.artifact_cache.misses", static_cast<double>(misses),
             "count");
  out.metric("ledger.trace_overhead_pct",
             100.0 * (median(traced_ms) / median(untraced_ms) - 1.0), "%");
  out.operations(attempted, wrong, 0);
}

}  // namespace ledger
