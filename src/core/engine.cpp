#include "core/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "anml/anml_io.hpp"
#include "apsim/lane_word.hpp"
#include "core/batch_compile.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "core/temporal_decode.hpp"
#include "util/fault_injection.hpp"
#include "util/fnv.hpp"

namespace apss::core {
namespace {

/// Builder tag: names the cache slot files and salts the compile-input key.
constexpr std::string_view kEngineBuilder = "apss-knn-engine";

/// Worst-wins ordering for reducing shard outcomes to one per-configuration
/// state: a hard failure outranks cancellation outranks timeout outranks
/// degradation outranks ok.
int severity(ShardState state) noexcept {
  switch (state) {
    case ShardState::kOk:
      return 0;
    case ShardState::kDegraded:
      return 1;
    case ShardState::kTimedOut:
      return 2;
    case ShardState::kCancelled:
      return 3;
    case ShardState::kFailed:
      return 4;
  }
  return 4;
}

}  // namespace

const char* to_string(OnError policy) noexcept {
  switch (policy) {
    case OnError::kFailFast:
      return "fail-fast";
    case OnError::kRetry:
      return "retry";
  }
  return "unknown";
}

const char* to_string(ShardState state) noexcept {
  switch (state) {
    case ShardState::kOk:
      return "ok";
    case ShardState::kDegraded:
      return "degraded";
    case ShardState::kTimedOut:
      return "timed-out";
    case ShardState::kCancelled:
      return "cancelled";
    case ShardState::kFailed:
      return "failed";
  }
  return "unknown";
}

ApKnnEngine::ApKnnEngine(knn::BinaryDataset dataset, EngineOptions options)
    : dataset_(std::move(dataset)), options_(options) {
  if (dataset_.empty()) {
    throw std::invalid_argument("ApKnnEngine: empty dataset");
  }
  if (options_.multiplex_slices > kMaxSlices) {
    throw std::invalid_argument("ApKnnEngine: multiplex_slices must be 0..7");
  }
  if (options_.multiplex_slices > 0 && options_.packing_group_size > 0) {
    throw std::invalid_argument(
        "ApKnnEngine: multiplexing cannot be combined with vector packing");
  }
  // Resolve the worker pool once: `threads` picks serial (1), the shared
  // process-wide pool (0), or a private pool sized so that N threads total
  // run this engine's shards (N-1 workers — the submitting thread
  // participates in every job).
  if (options_.threads == 0) {
    pool_ = &util::ThreadPool::global();
  } else if (options_.threads > 1) {
    owned_pool_ = std::make_unique<util::ThreadPool>(options_.threads - 1);
    pool_ = owned_pool_.get();
  }
  const std::size_t dims = dataset_.dims();
  const bool packed = options_.packing_group_size > 0;
  VectorPackingOptions pack_opt;
  pack_opt.group_size = options_.packing_group_size;
  pack_opt.style = options_.packing_style;
  pack_opt.macro = options_.macro;
  spec_ = StreamSpec{dims, packed && pack_opt.style == CollectorStyle::kFlat
                               ? 1
                               : collector_levels_for(dims, options_.macro)};

  // Board capacity: how many vectors fit one configuration. Plain macros of
  // a given dimensionality are isomorphic, so any vector serves as the
  // prototype; a multiplexed vector costs its S slice replicas. Packed
  // groups differ in how many value states their vectors share, so the
  // prototype is a WORST-CASE group (alternating all-zeros / all-ones rows:
  // two value states at every dimension once the group holds two vectors)
  // — capacity must never overcommit the board just because the first
  // group happened to share more than later ones.
  {
    anml::AutomataNetwork prototype("prototype");
    std::size_t vectors_per_copy = 1;
    if (packed) {
      vectors_per_copy = std::min(pack_opt.group_size, dataset_.size());
      knn::BinaryDataset worst(vectors_per_copy, dims);
      for (std::size_t v = 1; v < vectors_per_copy; v += 2) {
        for (std::size_t i = 0; i < dims; ++i) {
          worst.set(v, i, true);
        }
      }
      append_packed_group(prototype, worst, 0, vectors_per_copy, pack_opt);
    } else if (options_.multiplex_slices > 0) {
      build_multiplexed_network(prototype, dataset_, options_.multiplex_slices,
                                options_.macro, 0, 1);
    } else {
      append_hamming_macro(prototype, dataset_.vector(0), 0, options_.macro);
    }
    const apsim::MacroFootprint fp = apsim::footprint_of(prototype);
    capacity_ = apsim::max_copies(fp, options_.board, options_.placement) *
                vectors_per_copy;
    if (capacity_ == 0) {
      throw std::invalid_argument(
          "ApKnnEngine: one macro exceeds the board capacity");
    }
  }
  if (options_.max_vectors_per_config != 0) {
    capacity_ = std::min(capacity_, options_.max_vectors_per_config);
  }

  // Compile one automata network per board configuration. When the
  // bit-parallel backend is requested, each configuration is additionally
  // compiled into a packed BatchProgram; failures leave `program` null and
  // that configuration runs on the cycle-accurate simulator. With an
  // artifact cache directory, each configuration first tries to LOAD its
  // program — a hit skips both the network construction and the
  // verification compile (network(i) rebuilds lazily if inspected).
  // Partitions are independent, so configuration shards compile on the
  // worker pool; each shard records its own decline reason and cache
  // outcome and the reduce below walks shards in configuration order, so
  // the aggregated stats are identical at any thread count (no shared
  // counter mutation).
  const bool cache_enabled =
      options_.backend == SimulationBackend::kBitParallel &&
      !options_.artifact_cache_dir.empty();
  if (cache_enabled) {
    std::error_code ec;
    std::filesystem::create_directories(options_.artifact_cache_dir, ec);
    if (ec) {
      throw std::invalid_argument(
          "ApKnnEngine: cannot create artifact cache directory " +
          options_.artifact_cache_dir + ": " + ec.message());
    }
    // A crash between a slot file's temp write and its rename leaks
    // "*.apss-art.tmp.*" files; sweep them now that the directory is ours.
    compile_stats_.artifact.stale_tmp_swept =
        sweep_stale_artifact_tmp(options_.artifact_cache_dir);
  }
  const apsim::SimOptions sim_options =
      apsim::SimOptions::from(options_.device.features);
  partitions_.resize((dataset_.size() + capacity_ - 1) / capacity_);
  std::vector<std::string> decline_reasons(partitions_.size());
  std::vector<ArtifactCacheStats> cache_stats(partitions_.size());
  const auto build_partition = [&](std::size_t c) {
    Partition& p = partitions_[c];
    p.begin = c * capacity_;
    p.count = std::min(capacity_, dataset_.size() - p.begin);
    if (cache_enabled) {
      CachedProgram cached = try_load_program(
          artifact_cache_file(c), artifact_key(c),
          p.count * queries_per_frame(), dataset_.dims());
      cache_stats[c].record(cached.outcome);
      cache_stats[c].io_retries += cached.io_retries;
      cache_stats[c].quarantined += cached.quarantined ? 1 : 0;
      if (cached.outcome == ArtifactOutcome::kHit) {
        p.program = std::move(cached.program);
        return;
      }
    }
    std::vector<MacroLayout> hamming_layouts;
    std::vector<PackedGroupLayout> packed_layouts;
    build_network(p, &hamming_layouts, &packed_layouts);
    if (options_.backend == SimulationBackend::kBitParallel) {
      p.program =
          packed ? compile_packed_batch(*p.network, packed_layouts,
                                        sim_options, &decline_reasons[c])
                 : compile_hamming_batch(*p.network, hamming_layouts,
                                         sim_options, &decline_reasons[c]);
      if (cache_enabled && p.program != nullptr) {
        // Best-effort: an unwritable cache degrades to compile-every-time,
        // it never fails construction.
        std::size_t store_retries = 0;
        store_program(artifact_cache_file(c), artifact_meta(p), p.program,
                      nullptr, &store_retries);
        cache_stats[c].io_retries += store_retries;
      }
    }
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(0, partitions_.size(), build_partition, /*grain=*/1);
  } else {
    for (std::size_t c = 0; c < partitions_.size(); ++c) {
      build_partition(c);
    }
  }

  // Backend/fallback bookkeeping (EngineStats::backend): count the fast
  // path per macro family; aggregate decline reasons so no configuration
  // falls back to the cycle-accurate simulator silently. Reasons appear in
  // first-occurrence configuration order.
  for (std::size_t c = 0; c < partitions_.size(); ++c) {
    const Partition& p = partitions_[c];
    ++compile_stats_.configurations;
    compile_stats_.artifact.merge(cache_stats[c]);
    if (p.program != nullptr) {
      ++compile_stats_.bit_parallel;
      switch (p.program->family()) {
        case apsim::MacroFamily::kHamming: ++compile_stats_.hamming; break;
        case apsim::MacroFamily::kPacked: ++compile_stats_.packed; break;
        case apsim::MacroFamily::kMultiplexed:
          ++compile_stats_.multiplexed;
          break;
      }
    } else if (options_.backend == SimulationBackend::kBitParallel) {
      ++compile_stats_.fallback;
      auto& reasons = compile_stats_.fallback_reasons;
      const auto it = std::find_if(
          reasons.begin(), reasons.end(),
          [&](const auto& entry) { return entry.first == decline_reasons[c]; });
      if (it != reasons.end()) {
        ++it->second;
      } else {
        reasons.emplace_back(decline_reasons[c], 1);
      }
    }
  }
  if (options_.backend == SimulationBackend::kBitParallel) {
    // Name the match-count kernel search() will run, so the stats (and the
    // CLI printout) report it before any simulator is constructed.
    compile_stats_.match_count_isa = apsim::resolve_match_counts().isa;
  }
}

void ApKnnEngine::build_network(
    const Partition& p, std::vector<MacroLayout>* hamming_layouts,
    std::vector<PackedGroupLayout>* packed_layouts) const {
  const std::size_t config = p.begin / capacity_;
  p.network =
      std::make_unique<anml::AutomataNetwork>("config" + std::to_string(config));
  if (options_.packing_group_size > 0) {
    VectorPackingOptions pack_opt;
    pack_opt.group_size = options_.packing_group_size;
    pack_opt.style = options_.packing_style;
    pack_opt.macro = options_.macro;
    for (std::size_t gb = p.begin; gb < p.begin + p.count;
         gb += pack_opt.group_size) {
      const std::size_t gcount =
          std::min(pack_opt.group_size, p.begin + p.count - gb);
      PackedGroupLayout layout =
          append_packed_group(*p.network, dataset_, gb, gcount, pack_opt);
      if (layout.collector_levels != spec_.collector_levels) {
        throw std::logic_error("ApKnnEngine: inconsistent collector depth");
      }
      if (packed_layouts != nullptr) {
        packed_layouts->push_back(std::move(layout));
      }
    }
  } else if (options_.multiplex_slices > 0) {
    std::vector<MacroLayout> layouts =
        build_multiplexed_network(*p.network, dataset_,
                                  options_.multiplex_slices, options_.macro,
                                  p.begin, p.count);
    for (const MacroLayout& layout : layouts) {
      if (layout.collector_levels != spec_.collector_levels) {
        throw std::logic_error("ApKnnEngine: inconsistent collector depth");
      }
    }
    if (hamming_layouts != nullptr) {
      *hamming_layouts = std::move(layouts);
    }
  } else {
    for (std::size_t i = 0; i < p.count; ++i) {
      MacroLayout layout = append_hamming_macro(
          *p.network, dataset_.vector(p.begin + i),
          static_cast<std::uint32_t>(p.begin + i), options_.macro);
      if (layout.collector_levels != spec_.collector_levels) {
        throw std::logic_error("ApKnnEngine: inconsistent collector depth");
      }
      if (hamming_layouts != nullptr) {
        hamming_layouts->push_back(std::move(layout));
      }
    }
  }
}

void ApKnnEngine::ensure_network(const Partition& p) const {
  std::lock_guard<std::mutex> lock(network_mutex_);
  if (p.network == nullptr) {
    build_network(p, nullptr, nullptr);
  }
}

const anml::AutomataNetwork& ApKnnEngine::network(std::size_t i) const {
  const Partition& p = partitions_.at(i);
  ensure_network(p);
  return *p.network;
}

std::uint64_t ApKnnEngine::artifact_key(std::size_t i) const {
  const Partition& p = partitions_.at(i);
  util::Fnv1a64 hasher;
  hasher.update_string(kEngineBuilder);
  hasher.update_u32(artifact::kFormatVersion);
  hasher.update_u64(p.begin);
  hash_dataset_slice(hasher, dataset_, p.begin, p.count);
  hash_macro_options(hasher, options_.macro);
  hasher.update_u64(options_.packing_group_size);
  hasher.update(static_cast<std::uint8_t>(options_.packing_style));
  hasher.update_u64(options_.multiplex_slices);
  hash_sim_options(hasher, apsim::SimOptions::from(options_.device.features));
  return hasher.digest();
}

std::string ApKnnEngine::artifact_cache_file(std::size_t i) const {
  if (options_.artifact_cache_dir.empty()) {
    return {};
  }
  return artifact_cache_path(options_.artifact_cache_dir, kEngineBuilder, i);
}

artifact::ArtifactMeta ApKnnEngine::artifact_meta(const Partition& p) const {
  ensure_network(p);
  artifact::ArtifactMeta meta;
  meta.key_hash = artifact_key(p.begin / capacity_);
  meta.network_digest = anml::network_digest(*p.network);
  meta.builder = std::string(kEngineBuilder);
  meta.network_name = p.network->name();
  meta.network_elements = p.network->size();
  meta.network_edges = p.network->edges().size();
  meta.dataset_begin = p.begin;
  meta.dataset_count = p.count;
  return meta;
}

bool ApKnnEngine::save_artifact(std::size_t i, const std::string& path,
                                std::string* error) const {
  const Partition& p = partitions_.at(i);
  if (p.program == nullptr) {
    if (error != nullptr) {
      *error = "configuration " + std::to_string(i) +
               " has no compiled bit-parallel program (cycle-accurate "
               "backend, or the compile fell back)";
    }
    return false;
  }
  return store_program(path, artifact_meta(p), p.program, error);
}

std::size_t ApKnnEngine::bit_parallel_configurations() const noexcept {
  std::size_t n = 0;
  for (const Partition& p : partitions_) {
    n += p.program != nullptr;
  }
  return n;
}

apsim::PlacementResult ApKnnEngine::placement(std::size_t i) const {
  return apsim::place(network(i), options_.board, options_.placement);
}

EngineStats ApKnnEngine::project(std::size_t query_count) const {
  EngineStats s;
  s.configurations = partitions_.size();
  s.vectors_per_config = capacity_;
  s.cycles_per_query = spec_.cycles_per_query();
  s.queries = query_count;
  s.simulated_cycles =
      frames_for(query_count) * s.cycles_per_query * s.configurations;
  s.backend = compile_stats_;
  return s;
}

double ApKnnEngine::report_bandwidth_gbps() const {
  // Sec. VI-C: 32*(n + d) bits conveyed per frame, one frame every
  // cycles_per_query cycles (the paper uses 2d; we use our exact frame).
  // Each vector reports once per query the frame carries.
  const double reports = static_cast<double>(capacity_ * queries_per_frame());
  const double bits =
      32.0 * (reports + static_cast<double>(dataset_.dims()));
  const double seconds = static_cast<double>(spec_.cycles_per_query()) *
                         options_.device.timing.cycle_seconds();
  return bits / seconds / 1e9;
}

std::vector<std::vector<knn::Neighbor>> ApKnnEngine::search(
    const knn::BinaryDataset& queries, std::size_t k) {
  SearchResult result;
  result.events = std::move(report_stream_);
  result.events.clear();
  search_into(queries, k, SearchControl{}, result);
  stats_ = std::move(result.stats);
  report_stream_ = std::move(result.events);
  return std::move(result.neighbors);
}

struct ApKnnEngine::Shard {
  std::size_t config = 0;
  std::size_t first_frame = 0;
  std::size_t frames = 0;
  /// The queries those frames carry.
  std::size_t first_query = 0;
  std::size_t queries = 0;
  /// Shard-local ReportEvent buffer, rebased to the configuration's full
  /// query-stream timeline after decoding.
  std::vector<apsim::ReportEvent> events;
  /// Reports the shard's simulation produced, including those the report
  /// limit kept out of `events`.
  std::size_t report_count = 0;
  std::vector<std::vector<knn::Neighbor>> partial;
  /// Outcome under OnError::kRetry (kFailFast throws instead).
  ShardState state = ShardState::kOk;
  std::string error;
  std::uint32_t retries = 0;
};

struct ApKnnEngine::SearchPlan {
  std::size_t queries = 0;
  std::size_t k = 0;
  /// BatchSimulator's per-frame report limit (0 keeps every report).
  std::size_t report_limit = 0;
  std::vector<Shard> shards;
};

SearchResult ApKnnEngine::search(const knn::BinaryDataset& queries,
                                 std::size_t k,
                                 const SearchControl& control) const {
  SearchResult result;
  search_into(queries, k, control, result);
  return result;
}

void ApKnnEngine::search_into(const knn::BinaryDataset& queries,
                              std::size_t k, const SearchControl& control,
                              SearchResult& result) const {
  if (queries.dims() != dataset_.dims()) {
    throw std::invalid_argument("ApKnnEngine::search: query dims mismatch");
  }
  if (k == 0) {
    throw std::invalid_argument("ApKnnEngine::search: k must be >= 1");
  }
  result.stats = project(queries.size());
  SearchPlan plan = plan_search(queries.size(), k);
  run_shards(plan, queries, control);
  reduce_shard_status(plan, result.stats);
  merge_shards(plan, result);
}

ApKnnEngine::SearchPlan ApKnnEngine::plan_search(std::size_t query_count,
                                                 std::size_t k) const {
  SearchPlan plan;
  plan.queries = query_count;
  plan.k = k;
  // The temporal sort makes a query's first k reports its k nearest, so a
  // bit-parallel closed-form frame emits only those (plus the rest of the
  // k-th report's cycle, for the tie cut). A collected stream stays whole,
  // and so does a multiplexed frame, whose earliest k reports span all its
  // slices.
  plan.report_limit =
      options_.collect_report_stream || options_.multiplex_slices > 0 ? 0 : k;

  // One shard per (configuration, frame range). queries_per_chunk caps the
  // shard size; with a pool the size is refined downward so every thread
  // gets several shards to balance. The shard list itself — and therefore
  // every shard's simulation — is a pure function of the inputs, never of
  // which worker ran it.
  const std::size_t frames = frames_for(query_count);
  std::size_t chunk = std::max<std::size_t>(1, options_.queries_per_chunk);
  if (pool_ != nullptr) {
    const std::size_t target_shards = 4 * (pool_->size() + 1);
    const std::size_t total_frames = frames * partitions_.size();
    chunk = std::min(
        chunk,
        std::max<std::size_t>(
            1, (total_frames + target_shards - 1) / target_shards));
  }
  const std::size_t per_frame = queries_per_frame();
  for (std::size_t c = 0; c < partitions_.size(); ++c) {
    for (std::size_t f = 0; f < frames; f += chunk) {
      Shard& shard = plan.shards.emplace_back();
      shard.config = c;
      shard.first_frame = f;
      shard.frames = std::min(chunk, frames - f);
      shard.first_query = f * per_frame;
      shard.queries = std::min(query_count, (f + shard.frames) * per_frame) -
                      shard.first_query;
    }
  }
  return plan;
}

void ApKnnEngine::run_shards(SearchPlan& plan,
                             const knn::BinaryDataset& queries,
                             const SearchControl& control) const {
  const std::size_t cpq = spec_.cycles_per_query();
  const std::size_t per_frame = queries_per_frame();
  // A one-query frame is exactly the base design's frame, so one encoder
  // serves both designs.
  const MultiplexedStreamEncoder encoder(spec_);
  const apsim::SimOptions sim_options =
      apsim::SimOptions::from(options_.device.features);

  // Each worker owns its simulator scratch state and reuses it across the
  // consecutive shards of its chunk while they stay on one configuration —
  // the cycle-accurate simulator's construction (a full validation pass)
  // then amortizes over the chunk. run() resets per shard, so reuse cannot
  // leak state between shards.
  const auto run_range = [&](std::size_t lo, std::size_t hi) {
    constexpr std::size_t kNoConfig = static_cast<std::size_t>(-1);
    std::size_t sim_config = kNoConfig;
    bool sim_is_batch = false;
    std::unique_ptr<apsim::Simulator> reference;
    std::unique_ptr<apsim::BatchSimulator> batch;
    std::vector<std::uint8_t> stream;
    // One attempt at simulating `shard`: checkpoint (deadline/cancel), fire
    // the shard-entry fault site, simulate, decode, rebase. Throws on any
    // failure; `force_reference` is the degrade path (cycle-accurate rerun
    // of a bit-parallel configuration — bit-identical events, just slower).
    const auto run_attempt = [&](Shard& shard, const Partition& part,
                                 const util::RunControl& ctl,
                                 bool force_reference) {
      ctl.checkpoint();
      util::FaultInjector::check(util::kFaultEngineShard, ctl.fault_key);
      const bool use_batch = part.program != nullptr && !force_reference;
      if (shard.config != sim_config || use_batch != sim_is_batch) {
        reference.reset();
        batch.reset();
        if (use_batch) {
          batch = std::make_unique<apsim::BatchSimulator>(part.program);
        } else {
          // The degrade path may find the network absent: a cache hit
          // skipped its construction.
          ensure_network(part);
          reference = std::make_unique<apsim::Simulator>(*part.network,
                                                         sim_options);
        }
        sim_config = shard.config;
        sim_is_batch = use_batch;
      }
      stream.clear();
      stream.reserve(shard.frames * cpq);
      const std::size_t end = shard.first_query + shard.queries;
      for (std::size_t q = shard.first_query; q < end; q += per_frame) {
        encoder.append_group(queries, q, std::min(per_frame, end - q), stream);
      }
      if (batch != nullptr) {
        const std::uint64_t before = batch->report_count();
        shard.events = batch->run(stream, ctl, plan.report_limit);
        shard.report_count = batch->report_count() - before;
      } else {
        shard.events = reference->run(stream, ctl);
        shard.report_count = shard.events.size();
      }
      const TemporalSortDecoder decoder(spec_, shard.queries,
                                        options_.multiplex_slices);
      shard.partial = decoder.decode(shard.events, plan.k);
      apsim::rebase_events(shard.events, shard.first_frame * cpq);
    };
    for (std::size_t t = lo; t < hi; ++t) {
      Shard& shard = plan.shards[t];
      const Partition& part = partitions_[shard.config];
      // Fault-tolerance plumbing (docs/ROBUSTNESS.md): every shard polls
      // the caller's deadline and cancellation token at query-frame
      // boundaries inside the simulators and records its own outcome (no
      // locking, no ordering dependence); reduce_shard_status() folds them
      // per configuration.
      util::RunControl ctl;
      ctl.deadline = control.deadline;
      ctl.cancel = control.cancel;
      ctl.checkpoint_period = cpq;
      ctl.fault_key = static_cast<std::int64_t>(shard.config);
      if (options_.on_error == OnError::kFailFast) {
        // The pre-fault-tolerance path, byte for byte: nothing is caught
        // here, so the first failure unwinds through the pool's
        // first-exception rethrow to the caller.
        run_attempt(shard, part, ctl, /*force_reference=*/false);
        continue;
      }
      std::size_t retries_left = options_.max_retries;
      bool degraded = false;
      for (;;) {
        try {
          run_attempt(shard, part, ctl, /*force_reference=*/degraded);
          if (degraded) {
            shard.state = ShardState::kDegraded;
          } else {
            shard.state = ShardState::kOk;
            shard.error.clear();  // recovered by a plain retry
          }
          break;
        } catch (const util::DeadlineExceeded& e) {
          // The budget is gone; retrying could only blow past it further.
          shard.state = ShardState::kTimedOut;
          if (shard.error.empty()) {
            shard.error = e.what();
          }
          break;
        } catch (const util::OperationCancelled& e) {
          shard.state = ShardState::kCancelled;
          if (shard.error.empty()) {
            shard.error = e.what();
          }
          break;
        } catch (const std::exception& e) {
          if (shard.error.empty()) {
            shard.error = e.what();
          }
          // A failed attempt may leave the cached simulator mid-stream;
          // force reconstruction before any further attempt or shard.
          sim_config = kNoConfig;
          if (retries_left > 0) {
            --retries_left;
            ++shard.retries;
            continue;
          }
          if (!degraded && part.program != nullptr) {
            degraded = true;
            ++shard.retries;
            continue;
          }
          shard.state = ShardState::kFailed;
          break;
        }
      }
    }
  };

  if (pool_ != nullptr) {
    pool_->parallel_for_chunks(0, plan.shards.size(), run_range, /*grain=*/1);
  } else {
    run_range(0, plan.shards.size());
  }
}

void ApKnnEngine::reduce_shard_status(const SearchPlan& plan,
                                      EngineStats& stats) const {
  // One status per configuration: the worst state wins, the first error in
  // shard order is kept, retries accumulate.
  stats.shard_status.assign(partitions_.size(), ShardStatus{});
  for (const Shard& shard : plan.shards) {
    ShardStatus& status = stats.shard_status[shard.config];
    if (severity(shard.state) > severity(status.state)) {
      status.state = shard.state;
    }
    if (status.error.empty() && !shard.error.empty()) {
      status.error = shard.error;
    }
    status.retries += shard.retries;
  }
}

void ApKnnEngine::merge_shards(SearchPlan& plan, SearchResult& result) const {
  // Host-side merge across configurations (Sec. III-C: the host tracks
  // intermediary per-query results between reconfigurations). Shards are
  // walked in configuration/frame order on this thread, so stats
  // accumulation, the merged report stream, and the per-query lists are
  // bit-identical at any thread count. A configuration SURVIVES when every
  // shard is kOk or kDegraded; any other configuration is skipped
  // wholesale — its partial per-query lists would silently rank neighbors
  // against an incomplete candidate set — so what remains equals a run
  // without it.
  EngineStats& stats = result.stats;
  const auto survives = [&](std::size_t c) {
    const ShardState s = stats.shard_status[c].state;
    return s == ShardState::kOk || s == ShardState::kDegraded;
  };
  // Every partial list is in (distance, id) order and cut to k, and
  // (distance, id) is a strict order over unique global ids. So merging
  // each list into the query's running list and stopping at `want` keeps
  // exactly a full sort's prefix; the first surviving list is moved in.
  const std::size_t want = std::min(plan.k, dataset_.size());
  result.neighbors.resize(plan.queries);
  std::vector<knn::Neighbor> merged;
  for (Shard& shard : plan.shards) {
    if (!survives(shard.config)) {
      continue;
    }
    stats.report_events += shard.report_count;
    if (options_.collect_report_stream) {
      result.events.insert(result.events.end(), shard.events.begin(),
                           shard.events.end());
    }
    for (std::size_t i = 0; i < shard.queries; ++i) {
      auto& dst = result.neighbors[shard.first_query + i];
      auto& src = shard.partial[i];
      if (dst.empty()) {
        dst = std::move(src);
        continue;
      }
      merged.resize(std::min(want, dst.size() + src.size()));
      auto a = dst.cbegin();
      auto b = src.cbegin();
      for (knn::Neighbor& out : merged) {
        out = b == src.cend() || (a != dst.cend() && *a < *b) ? *a++ : *b++;
      }
      dst.swap(merged);
    }
  }
  const std::size_t surviving = stats.surviving_configurations();
  if (surviving != partitions_.size()) {
    stats.simulated_cycles =
        frames_for(plan.queries) * stats.cycles_per_query * surviving;
  }
}

}  // namespace apss::core
