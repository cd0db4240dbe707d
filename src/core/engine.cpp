#include "core/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <thread>

#include "anml/anml_io.hpp"
#include "apsim/batch_simulator.hpp"
#include "apsim/lane_word.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "core/temporal_decode.hpp"
#include "util/fault_injection.hpp"
#include "util/fnv.hpp"

namespace apss::core {
namespace {

/// Builder tag: names the cache slot files and salts the compile-input key.
constexpr std::string_view kEngineBuilder = "apss-knn-engine";

/// The packed design's builder options: `group_size` vectors per group
/// with kTree collectors (VectorPackingOptions defaults to kFlat) and the
/// default macro options.
VectorPackingOptions packing_options(std::size_t group_size) {
  VectorPackingOptions opt;
  opt.group_size = group_size;
  opt.style = CollectorStyle::kTree;
  return opt;
}

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

/// A configuration survives a search when every pass over it ended kOk or
/// kDegraded: its results are then exact.
bool survives(ShardState state) noexcept {
  return state == ShardState::kOk || state == ShardState::kDegraded;
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
  // N threads run this engine's shards: N-1 pool workers and the
  // submitting thread, which participates in every job.
  const std::size_t threads =
      options_.threads != 0
          ? options_.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(threads - 1);
  }
  const std::size_t dims = dataset_.dims();
  const bool packed = options_.packing_group_size > 0;
  spec_ = StreamSpec{dims, collector_levels_for(dims)};

  // Board capacity: how many vectors fit one configuration on a single-rank
  // board (the paper's, which holds 1024 x 128-dim vectors). Plain macros of
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
      vectors_per_copy = std::min(options_.packing_group_size, dataset_.size());
      knn::BinaryDataset worst(vectors_per_copy, dims);
      for (std::size_t v = 1; v < vectors_per_copy; v += 2) {
        for (std::size_t i = 0; i < dims; ++i) {
          worst.set(v, i, true);
        }
      }
      append_packed_group(prototype, worst, 0, vectors_per_copy,
                          packing_options(options_.packing_group_size));
    } else if (options_.multiplex_slices > 0) {
      build_multiplexed_network(prototype, dataset_, options_.multiplex_slices,
                                {}, 0, 1);
    } else {
      append_hamming_macro(prototype, dataset_.vector(0), 0);
    }
    const apsim::MacroFootprint fp = apsim::footprint_of(prototype);
    capacity_ = apsim::max_copies(fp, apsim::DeviceGeometry::one_rank()) *
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
      std::string* reason = &decline_reasons[c];
      p.program = packed ? apsim::BatchProgram::try_compile(
                               *p.network, packed_layouts, sim_options, reason)
                         : apsim::BatchProgram::try_compile(
                               *p.network, hamming_layouts, sim_options,
                               reason);
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

  // Backend/fallback bookkeeping (backend_stats()): count the fast
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
    const VectorPackingOptions pack_opt =
        packing_options(options_.packing_group_size);
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
                                  options_.multiplex_slices, {}, p.begin,
                                  p.count);
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
          static_cast<std::uint32_t>(p.begin + i));
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
  // The macro options and the collector style are constants; hashing them
  // keeps every key, and so every cache an earlier build wrote, unchanged.
  hash_macro_options(hasher, HammingMacroOptions{});
  hasher.update_u64(options_.packing_group_size);
  hasher.update(static_cast<std::uint8_t>(CollectorStyle::kTree));
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
  return apsim::place(network(i), apsim::DeviceGeometry::one_rank());
}

EngineStats ApKnnEngine::project(std::size_t query_count) const {
  EngineStats s;
  s.configurations = partitions_.size();
  s.vectors_per_config = capacity_;
  s.cycles_per_query = spec_.cycles_per_query();
  s.queries = query_count;
  s.simulated_cycles =
      frames_for(query_count) * s.cycles_per_query * s.configurations;
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

/// One configuration's pass over one shard's frames: its outcome and the
/// reports its simulation produced. Its decoded arrivals go to the
/// shard's candidate lists.
struct ApKnnEngine::ConfigPass {
  /// Outcome under OnError::kRetry (kFailFast throws instead).
  ShardState state = ShardState::kOk;
  std::string error;
  std::uint32_t retries = 0;
  /// Reports the simulation produced, including those the report limit
  /// and the count floor kept out of the decoded events.
  std::size_t report_count = 0;
  /// The pass's ReportEvents rebased to the configuration's full
  /// query-stream timeline; filled only for a collected stream.
  std::vector<apsim::ReportEvent> events;
  /// Committed to the shard's candidate lists by its latest walk.
  bool merged = false;
  /// Simulated under a nonzero count floor, i.e. cut with a bound taken
  /// from the configurations merged before it.
  bool floored = false;
};

struct ApKnnEngine::Shard {
  std::size_t first_frame = 0;
  std::size_t frames = 0;
  /// The queries those frames carry.
  std::size_t first_query = 0;
  std::size_t queries = 0;
  /// One pass per configuration, in id order.
  std::vector<ConfigPass> passes;
  /// Per query, the kept arrivals of every pass merged since the latest
  /// walk began, and the running k-th distance they give.
  CandidateLists lists;
};

struct ApKnnEngine::SearchPlan {
  std::size_t queries = 0;
  std::size_t k = 0;
  /// Entries a complete answer holds: min(k, dataset size).
  std::size_t want = 0;
  /// BatchSimulator's per-frame report limit (0 keeps every report). The
  /// running bound's count floor is on exactly when the limit is.
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
  // Every shard walks every configuration. A configuration that is lost
  // in any shard is lost from the answer, and the shards whose later
  // configurations were cut with a bound it helped set walk again over the
  // survivors alone — until the surviving set stops changing
  // (docs/ROBUSTNESS.md).
  std::vector<std::size_t> pending(plan.shards.size());
  std::iota(pending.begin(), pending.end(), 0);
  std::vector<bool> walk(partitions_.size(), true);
  while (!pending.empty()) {
    run_shards(plan, pending, walk, queries, control);
    reduce_shard_status(plan, result.stats);
    for (std::size_t c = 0; c < walk.size(); ++c) {
      walk[c] = survives(result.stats.shard_status[c].state);
    }
    pending.clear();
    for (std::size_t t = 0; t < plan.shards.size(); ++t) {
      if (bound_used_lost_config(plan.shards[t], walk)) {
        pending.push_back(t);
      }
    }
  }
  merge_shards(plan, walk, result);
}

ApKnnEngine::SearchPlan ApKnnEngine::plan_search(std::size_t query_count,
                                                 std::size_t k) const {
  SearchPlan plan;
  plan.queries = query_count;
  plan.k = k;
  plan.want = std::min(k, dataset_.size());
  // The temporal sort makes a query's first k reports its k nearest, so a
  // bit-parallel closed-form frame emits only those (plus the rest of the
  // k-th report's cycle, for the tie cut), and once the query holds
  // min(k, n) candidates only those that beat their k-th distance. A
  // collected stream stays whole, and so does a multiplexed frame, whose
  // earliest k reports span all its slices.
  plan.report_limit =
      options_.collect_report_stream || options_.multiplex_slices > 0 ? 0 : k;

  // One shard per frame range; each walks every configuration.
  // queries_per_chunk caps the range; with a pool it is refined downward so
  // every thread gets several shards to balance. The shard list itself —
  // and therefore every shard's simulation — is a pure function of the
  // inputs, never of which worker ran it.
  const std::size_t frames = frames_for(query_count);
  std::size_t chunk = std::max<std::size_t>(1, options_.queries_per_chunk);
  if (pool_ != nullptr) {
    const std::size_t target_shards = 4 * (pool_->size() + 1);
    chunk = std::min(
        chunk, std::max<std::size_t>(
                   1, (frames + target_shards - 1) / target_shards));
  }
  const std::size_t per_frame = queries_per_frame();
  for (std::size_t f = 0; f < frames; f += chunk) {
    Shard& shard = plan.shards.emplace_back();
    shard.first_frame = f;
    shard.frames = std::min(chunk, frames - f);
    shard.first_query = f * per_frame;
    shard.queries = std::min(query_count, (f + shard.frames) * per_frame) -
                    shard.first_query;
    shard.passes.resize(partitions_.size());
  }
  return plan;
}

void ApKnnEngine::run_shards(SearchPlan& plan,
                             std::span<const std::size_t> shards,
                             const std::vector<bool>& walk,
                             const knn::BinaryDataset& queries,
                             const SearchControl& control) const {
  const std::size_t cpq = spec_.cycles_per_query();
  const std::size_t per_frame = queries_per_frame();
  const auto dims = static_cast<std::uint32_t>(spec_.dims);
  // A one-query group is the base design's frame, so append_group encodes
  // both designs.
  const SymbolStreamEncoder encoder(spec_);
  const apsim::SimOptions sim_options =
      apsim::SimOptions::from(options_.device.features);

  // The state one shard's walk carries from configuration to
  // configuration: its encoded frames, the per-frame count floors, and one
  // bit-parallel simulator that each pass binds to its program.
  struct Walk {
    Shard& shard;
    std::vector<std::uint8_t> stream;
    std::vector<std::uint32_t> floors;
    std::optional<apsim::BatchSimulator> batch;
  };

  // One attempt at simulating configuration `c` over the shard's frames:
  // checkpoint (deadline/cancel), fire the shard-entry fault site,
  // simulate, decode, rebase. Throws on any failure; `force_reference` is
  // the degrade path (cycle-accurate rerun of a bit-parallel configuration
  // — bit-identical events, just slower). An attempt writes its pass
  // whole, or a later attempt rewrites it, and its decoded arrivals enter
  // the candidate lists all or none, after the last step that can fail,
  // so a failed one leaves nothing a retry or another configuration reads.
  const auto run_attempt = [&](Walk& w, std::size_t c,
                               const util::RunControl& ctl,
                               std::span<const std::uint32_t> floors,
                               bool force_reference) {
    ctl.checkpoint();
    util::FaultInjector::check(util::kFaultEngineShard, ctl.fault_key);
    const Partition& part = partitions_[c];
    ConfigPass& pass = w.shard.passes[c];
    std::vector<apsim::ReportEvent> events;
    if (part.program != nullptr && !force_reference) {
      if (w.batch.has_value()) {
        w.batch->bind(part.program);
      } else {
        w.batch.emplace(part.program);
      }
      events = w.batch->run(w.stream, ctl, plan.report_limit, floors);
      pass.report_count = w.batch->report_count();
      pass.floored = !floors.empty();
    } else {
      // The degrade path may find the network absent: a cache hit skipped
      // its construction.
      ensure_network(part);
      apsim::Simulator reference(*part.network, sim_options);
      events = reference.run(w.stream, ctl);
      pass.report_count = events.size();
      pass.floored = false;
    }
    const TemporalSortDecoder decoder(spec_, w.shard.queries,
                                      options_.multiplex_slices);
    decoder.decode_pass(events, w.shard.lists);
    pass.merged = true;
    if (options_.collect_report_stream) {
      apsim::rebase_events(events, w.shard.first_frame * cpq);
      pass.events = std::move(events);
    }
  };

  // One pass of configuration `c` under the failure policy. Returns false
  // when the budget is gone (the walk then ends).
  const auto run_pass = [&](Walk& w, std::size_t c, util::RunControl& ctl,
                            std::span<const std::uint32_t> floors) {
    ConfigPass& pass = w.shard.passes[c];
    ctl.fault_key = static_cast<std::int64_t>(c);
    if (options_.on_error == OnError::kFailFast) {
      // The pre-fault-tolerance path, byte for byte: nothing is caught
      // here, so the first failure unwinds through the pool's
      // first-exception rethrow to the caller.
      run_attempt(w, c, ctl, floors, /*force_reference=*/false);
      return true;
    }
    // A walk over the survivors keeps the worst state and first error of
    // the walks before it.
    const ShardState before = pass.state;
    std::string error;
    std::size_t retries_left = options_.max_retries;
    bool degraded = false;
    for (;;) {
      try {
        run_attempt(w, c, ctl, floors, /*force_reference=*/degraded);
        pass.state = degraded ? ShardState::kDegraded : ShardState::kOk;
        if (!degraded) {
          error.clear();  // recovered by a plain retry
        }
        break;
      } catch (const util::DeadlineExceeded& e) {
        // The budget is gone; retrying could only blow past it further.
        pass.state = ShardState::kTimedOut;
        if (error.empty()) {
          error = e.what();
        }
        break;
      } catch (const util::OperationCancelled& e) {
        pass.state = ShardState::kCancelled;
        if (error.empty()) {
          error = e.what();
        }
        break;
      } catch (const std::exception& e) {
        if (error.empty()) {
          error = e.what();
        }
        if (retries_left > 0) {
          --retries_left;
          ++pass.retries;
          continue;
        }
        if (!degraded && partitions_[c].program != nullptr) {
          degraded = true;
          ++pass.retries;
          continue;
        }
        pass.state = ShardState::kFailed;
        break;
      }
    }
    if (severity(before) > severity(pass.state)) {
      pass.state = before;
    }
    if (pass.error.empty()) {
      pass.error = std::move(error);
    }
    return pass.state != ShardState::kTimedOut &&
           pass.state != ShardState::kCancelled;
  };

  // A shard's walk: encode its frames once, then run the walked
  // configurations in ascending id order, each pass appending its kept
  // arrivals to the candidate lists. Before each pass the lists set the
  // count floor: a query with min(k, n) candidates can take a later
  // (larger-id) vector only at a distance below their k-th, D_k, i.e. at a
  // match count of at least d - D_k + 1. A deadline or cancellation ends
  // the walk, and every configuration it did not reach shares that state.
  const auto walk_shard = [&](std::size_t t) {
    Walk w{plan.shards[t], {}, {}, std::nullopt};
    Shard& shard = w.shard;
    w.stream.reserve(shard.frames * cpq);
    const std::size_t end = shard.first_query + shard.queries;
    for (std::size_t q = shard.first_query; q < end; q += per_frame) {
      encoder.append_group(queries, q, std::min(per_frame, end - q),
                           w.stream);
    }
    shard.lists = CandidateLists(shard.queries, spec_.dims, plan.k, plan.want);
    // Fault-tolerance plumbing (docs/ROBUSTNESS.md): every pass polls the
    // caller's deadline and cancellation token at query-frame boundaries
    // inside the simulators and records its own outcome (no locking, no
    // ordering dependence); reduce_shard_status() folds them per
    // configuration.
    util::RunControl ctl;
    ctl.deadline = control.deadline;
    ctl.cancel = control.cancel;
    ctl.checkpoint_period = cpq;
    for (ConfigPass& pass : shard.passes) {
      pass.merged = false;
    }
    const ConfigPass* ended = nullptr;
    for (std::size_t c = 0; c < partitions_.size(); ++c) {
      if (!walk[c]) {
        continue;
      }
      ConfigPass& pass = shard.passes[c];
      if (ended != nullptr) {
        pass.state = ended->state;
        if (pass.error.empty()) {
          pass.error = ended->error;
        }
        continue;
      }
      std::span<const std::uint32_t> floors;
      if (plan.report_limit != 0) {
        w.floors.assign(shard.frames, 0);
        bool any = false;
        for (std::size_t q = 0; q < shard.queries; ++q) {
          if (shard.lists.full(q)) {
            w.floors[q] = dims - shard.lists.kth_distance(q) + 1;
            any = true;
          }
        }
        if (any) {
          floors = w.floors;
        }
      }
      if (!run_pass(w, c, ctl, floors)) {
        ended = &pass;
      }
    }
  };

  if (pool_ != nullptr) {
    pool_->parallel_for(
        0, shards.size(), [&](std::size_t i) { walk_shard(shards[i]); },
        /*grain=*/1);
  } else {
    for (const std::size_t t : shards) {
      walk_shard(t);
    }
  }
}

bool ApKnnEngine::bound_used_lost_config(const Shard& shard,
                                         const std::vector<bool>& survivors) {
  // A lost configuration merged into the walk raised the bound of every
  // configuration after it; only a floored pass was cut with that bound.
  bool lost_merged = false;
  for (std::size_t c = 0; c < shard.passes.size(); ++c) {
    const ConfigPass& pass = shard.passes[c];
    if (!pass.merged) {
      continue;
    }
    if (!survivors[c]) {
      lost_merged = true;
    } else if (lost_merged && pass.floored) {
      return true;
    }
  }
  return false;
}

void ApKnnEngine::reduce_shard_status(const SearchPlan& plan,
                                      EngineStats& stats) const {
  // One status per configuration: the worst state wins, the first error in
  // frame order is kept, retries accumulate.
  stats.shard_status.assign(partitions_.size(), ShardStatus{});
  for (std::size_t c = 0; c < partitions_.size(); ++c) {
    ShardStatus& status = stats.shard_status[c];
    for (const Shard& shard : plan.shards) {
      const ConfigPass& pass = shard.passes[c];
      if (severity(pass.state) > severity(status.state)) {
        status.state = pass.state;
      }
      if (status.error.empty() && !pass.error.empty()) {
        status.error = pass.error;
      }
      status.retries += pass.retries;
    }
  }
}

void ApKnnEngine::merge_shards(SearchPlan& plan,
                               const std::vector<bool>& survivors,
                               SearchResult& result) const {
  // Host-side results (Sec. III-C: the host tracks intermediary per-query
  // results between reconfigurations). The shards hold disjoint queries,
  // so each takes its answers from its own candidate lists. A
  // configuration that is lost in any shard is skipped wholesale — its
  // partial per-query lists would silently rank neighbors against an
  // incomplete candidate set — so a shard that merged one drops that
  // configuration's ids from its lists; the survivors' arrivals left there
  // were cut by no bound of a lost configuration (search_into re-walked
  // those). Stats and the stream are assembled in configuration/frame
  // order on this thread, so they are bit-identical at any thread count.
  EngineStats& stats = result.stats;
  result.neighbors.resize(plan.queries);
  for (Shard& shard : plan.shards) {
    for (std::size_t c = 0; c < partitions_.size(); ++c) {
      if (shard.passes[c].merged && !survivors[c]) {
        const Partition& p = partitions_[c];
        shard.lists.drop_ids(static_cast<std::uint32_t>(p.begin),
                             static_cast<std::uint32_t>(p.begin + p.count));
      }
    }
    for (std::size_t q = 0; q < shard.queries; ++q) {
      result.neighbors[shard.first_query + q] = shard.lists.take(q);
    }
  }
  for (std::size_t c = 0; c < partitions_.size(); ++c) {
    if (!survivors[c]) {
      continue;
    }
    for (Shard& shard : plan.shards) {
      ConfigPass& pass = shard.passes[c];
      stats.report_events += pass.report_count;
      if (options_.collect_report_stream) {
        result.events.insert(result.events.end(), pass.events.begin(),
                             pass.events.end());
      }
    }
  }
  const std::size_t surviving = stats.surviving_configurations();
  if (surviving != partitions_.size()) {
    stats.simulated_cycles =
        frames_for(plan.queries) * stats.cycles_per_query * surviving;
  }
}

}  // namespace apss::core
