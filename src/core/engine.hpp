#pragma once
// End-to-end AP kNN engine (Sec. III): partitions a dataset into
// board-configuration-sized chunks, builds one Hamming+sorting macro per
// vector, streams queries through a cycle-accurate simulation of every
// configuration, and merges per-configuration partial results on the host —
// exactly the partial-reconfiguration workflow of Sec. III-C. The Sec. VI
// macro shapes — vector packing and symbol-stream multiplexing — are
// options of the same engine.

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "anml/network.hpp"
#include "apsim/device.hpp"
#include "apsim/placement.hpp"
#include "apsim/simulator.hpp"
#include "core/artifact_cache.hpp"
#include "core/hamming_macro.hpp"
#include "core/opt/vector_packing.hpp"
#include "core/stream.hpp"
#include "knn/dataset.hpp"
#include "knn/exact.hpp"
#include "util/cancellation.hpp"
#include "util/thread_pool.hpp"

namespace apss::apsim {
class BatchProgram;  // compiled bit-parallel form (apsim/batch_simulator.hpp)
}  // namespace apss::apsim

namespace apss::core {

/// Which simulator executes the compiled configurations in search().
enum class SimulationBackend {
  /// The frontier-based reference simulator (apsim::Simulator): supports
  /// every element kind and device feature; the semantic ground truth.
  kCycleAccurate,
  /// The packed 64-lanes-per-word fast path (apsim::BatchSimulator).
  /// Bit-identical report streams on homogeneous Hamming configurations —
  /// plain, vector-packed, and stream-multiplexed macro shapes alike; any
  /// configuration it cannot prove supported (counters capped above 1
  /// increment/cycle, boolean gates, dynamic thresholds, foreign elements)
  /// falls back to the cycle-accurate simulator, per configuration, with
  /// the decline reason recorded in EngineStats::backend.
  kBitParallel,
};

/// What search() does when a shard (configuration x query-frame range)
/// fails, times out, or is cancelled (docs/ROBUSTNESS.md).
enum class OnError : std::uint8_t {
  /// The first failure aborts the whole search: the exception unwinds to
  /// the caller through the pool's first-exception rethrow. The default —
  /// and byte-for-byte the pre-fault-tolerance behavior.
  kFailFast,
  /// Each failing shard is re-run up to EngineOptions::max_retries times; a
  /// bit-parallel shard that still fails is then re-run once on the
  /// cycle-accurate reference (kDegraded), and only a shard that fails
  /// there too drops its configuration (kFailed) — with max_retries = 0 as
  /// much as with retries. Deadline expiry and cancellation are never
  /// retried: the budget is already gone. Dropped, timed-out and cancelled
  /// configurations are skipped; surviving ones return bit-identical
  /// results and report streams. Failures are reported per configuration in
  /// EngineStats::shard_status, never raised.
  kRetry,
};

const char* to_string(OnError policy) noexcept;

/// Terminal state of one configuration after search() (worst state over
/// the configuration's shards).
enum class ShardState : std::uint8_t {
  kOk,        ///< every shard simulated on its primary backend
  /// The bit-parallel backend failed mid-search (under kRetry, after any
  /// plain retries) and the configuration was re-simulated on the
  /// cycle-accurate reference: results are still exact and bit-identical,
  /// just slower — degradation, not loss.
  kDegraded,
  kTimedOut,   ///< abandoned at a checkpoint after the deadline expired
  kCancelled,  ///< abandoned after CancellationToken::request_cancel()
  kFailed,     ///< a typed error survived every retry and fallback
};

const char* to_string(ShardState state) noexcept;

/// Per-configuration outcome of the last search(), surfaced through
/// EngineStats::shard_status and printed by apss_cli. Under kRetry a
/// non-ok state never aborts the search; under kFailFast the first failure
/// throws instead and statuses stay kOk.
struct ShardStatus {
  ShardState state = ShardState::kOk;
  /// First typed failure message observed for this configuration (empty
  /// when kOk; retained for kDegraded so the original fault stays visible).
  std::string error;
  /// Extra attempts spent on this configuration's shards (retries plus the
  /// degrade-to-cycle-accurate attempt).
  std::uint32_t retries = 0;

  bool operator==(const ShardStatus&) const = default;
};

/// Per-configuration compile outcome of the bit-parallel backend: which
/// simulator runs each configuration, by macro family, and why anything
/// fell back — so cycle-accurate fallbacks are visible (ISSUE 5), not
/// silent. Filled at engine construction; reported via EngineStats and
/// printed by `apss_cli knn --backend=bit`.
struct BackendCompileStats {
  std::size_t configurations = 0;  ///< total configurations built
  std::size_t bit_parallel = 0;    ///< compiled for apsim::BatchSimulator
  std::size_t fallback = 0;        ///< declined -> cycle-accurate path
  std::size_t hamming = 0;         ///< fast-path configs per macro family
  std::size_t packed = 0;
  std::size_t multiplexed = 0;
  /// Distinct try_compile decline reasons -> configuration counts (empty
  /// when nothing fell back or the backend is kCycleAccurate).
  std::vector<std::pair<std::string, std::size_t>> fallback_reasons;
  /// Compile-cache hit/miss/invalidation counters (all zero unless
  /// EngineOptions::artifact_cache_dir is set; see core/artifact_cache.hpp).
  ArtifactCacheStats artifact;
  /// The match-count kernel that closed-form frames run on this CPU/build
  /// ("avx512-vpopcntdq" | "popcnt" | "portable", as
  /// apsim::resolve_match_counts() picks it). Empty when the backend is
  /// kCycleAccurate. Purely informational: it never keys the compile cache.
  std::string match_count_isa;

  bool operator==(const BackendCompileStats&) const = default;
};

struct EngineOptions {
  apsim::DeviceConfig device = apsim::DeviceConfig::gen1();
  /// Board geometry backing ONE configuration (the paper measures a
  /// single-rank board; its capacity rule is 1024 x 128-dim vectors).
  apsim::DeviceGeometry board = apsim::DeviceGeometry::one_rank();
  HammingMacroOptions macro;
  apsim::PlacementOptions placement;
  /// Overrides the placement-derived capacity when nonzero (tests use this
  /// to force multi-configuration runs on small datasets).
  std::size_t max_vectors_per_config = 0;
  /// Concurrency of compile + simulation: 0 (default) shares the
  /// process-wide pool (hardware concurrency), 1 runs fully serial, N >= 2
  /// gives the engine a private pool so that N threads total (N-1 workers
  /// plus the submitting thread) run its shards. Surfaced as
  /// `apss_cli --threads=N`. Any setting yields bit-identical results:
  /// shards are merged in configuration/frame order, never completion order.
  std::size_t threads = 0;
  /// Upper bound on query frames per simulation shard (a multiplexed frame
  /// carries up to multiplex_slices queries); the engine refines the shard
  /// size downward so every thread gets several shards.
  std::size_t queries_per_chunk = 64;
  /// Retain the merged ReportEvent stream of the last search() — shard
  /// buffers rebased to each configuration's full query-stream timeline and
  /// concatenated in configuration/frame order (last_report_stream()).
  /// Off by default: the raw stream can dwarf the decoded results. While it
  /// is off, bit-parallel shards of the base and packed designs pass the
  /// search's k as BatchSimulator's per-frame report limit, so closed-form
  /// frames emit only their earliest reports (a multiplexed frame's
  /// earliest k reports span all its slices, so it keeps them all); answers
  /// and EngineStats are the same either way.
  bool collect_report_stream = false;
  /// Simulation backend (default: the cycle-accurate reference).
  SimulationBackend backend = SimulationBackend::kCycleAccurate;
  /// When > 0, each configuration is built with the Sec. VI-A
  /// vector-packing transform — this many vectors overlay one shared
  /// ladder per group — instead of one macro per vector. Board capacity,
  /// streams, report codes and decoding are unchanged; the packed network
  /// just spends fewer STEs per vector.
  std::size_t packing_group_size = 0;
  /// Collector style for packed configurations. kTree (default) stays
  /// routable at high dimensionality; kFlat reproduces the paper's naive
  /// construction (fan-in = dims, "places but only partially routes").
  CollectorStyle packing_style = CollectorStyle::kTree;
  /// Symbol-stream multiplexing (Sec. VI-B, Fig. 6). 0 (default) runs the
  /// base design, one query per frame. S in 1..7 builds each vector as S
  /// bit-slice replicas (core::build_multiplexed_network; report code =
  /// global vector id * 8 + slice), so one frame carries up to S queries:
  /// a search streams ceil(q / S) frames per configuration, and board
  /// capacity counts a vector's S replicas. Answers equal the base
  /// design's. Values above 7, or any value with packing_group_size > 0,
  /// throw std::invalid_argument.
  std::size_t multiplex_slices = 0;
  /// Ahead-of-time compile cache directory (created if absent). With the
  /// kBitParallel backend, each configuration first tries to LOAD its
  /// compiled program from a slot file here (skipping network construction
  /// and verification entirely); on a miss or invalidation it compiles
  /// fresh and saves the artifact. Outcomes are counted in
  /// EngineStats::backend.artifact. Empty (default) disables the cache; the
  /// kCycleAccurate backend ignores it (nothing is compiled).
  std::string artifact_cache_dir;
  /// Failure policy for search() shards (docs/ROBUSTNESS.md). A search's
  /// deadline and cancellation token are per call (SearchControl).
  OnError on_error = OnError::kFailFast;
  /// kRetry only: plain re-runs per failing shard before the degrade/fail
  /// path (0 = none).
  std::size_t max_retries = 2;
};

/// Cycle/report accounting for the device-time model (Sec. V).
struct EngineStats {
  std::size_t configurations = 0;
  std::size_t vectors_per_config = 0;  ///< capacity (last config may be smaller)
  /// Cycles per query frame per configuration pass. A multiplexed frame
  /// (EngineOptions::multiplex_slices = S) carries up to S queries.
  std::size_t cycles_per_query = 0;
  std::size_t queries = 0;
  /// Total across configurations: frames x cycles_per_query x
  /// configurations, with ceil(queries / S) frames when multiplexed.
  std::size_t simulated_cycles = 0;
  std::size_t report_events = 0;
  /// Which backend compiled each configuration (and why any fell back).
  BackendCompileStats backend;
  /// Per-configuration fault-isolation outcome of the last search() (empty
  /// for project()). All-kOk in every healthy run; under OnError::kRetry
  /// this is where failures and expired budgets are reported —
  /// simulated_cycles and report_events then count the SURVIVING
  /// configurations only.
  std::vector<ShardStatus> shard_status;

  bool operator==(const EngineStats&) const = default;

  /// Configurations whose results are in the returned neighbor lists
  /// (kOk + kDegraded).
  std::size_t surviving_configurations() const noexcept {
    std::size_t n = 0;
    for (const ShardStatus& s : shard_status) {
      n += s.state == ShardState::kOk || s.state == ShardState::kDegraded;
    }
    return shard_status.empty() ? configurations : n;
  }
  std::size_t count_state(ShardState state) const noexcept {
    std::size_t n = 0;
    for (const ShardStatus& s : shard_status) {
      n += s.state == state;
    }
    return n;
  }

  /// Backend-independent accounting equality: the two backends must do the
  /// SAME device work (cycles, reports, splits) even though `backend`
  /// legitimately differs between them.
  bool same_work(const EngineStats& o) const {
    return configurations == o.configurations &&
           vectors_per_config == o.vectors_per_config &&
           cycles_per_query == o.cycles_per_query && queries == o.queries &&
           simulated_cycles == o.simulated_cycles &&
           report_events == o.report_events;
  }

  /// Device busy time: every configuration streams every query.
  double compute_seconds(const apsim::DeviceTiming& t) const {
    return static_cast<double>(simulated_cycles) * t.cycle_seconds();
  }
  /// Reconfiguration time: one reconfig per configuration when the dataset
  /// needs more than one (matches the paper's large-dataset accounting).
  double reconfig_seconds(const apsim::DeviceTiming& t) const {
    return configurations > 1
               ? static_cast<double>(configurations) * t.reconfig_seconds
               : 0.0;
  }
  double total_seconds(const apsim::DeviceTiming& t) const {
    return compute_seconds(t) + reconfig_seconds(t);
  }
};

/// The budget of one search(): a deadline and a cancellation token, both
/// polled at query-frame boundaries, so an expired budget ends the search
/// within one frame of extra simulation. A null field means no deadline or
/// no token; both pointers must outlive the call. Expiry surfaces as
/// util::DeadlineExceeded / util::OperationCancelled under kFailFast and as
/// ShardState::kTimedOut / kCancelled under kRetry. Budgets belong to the
/// call, not the engine, so one shared engine serves callers with
/// different budgets at once (the serving layer passes each batch's).
struct SearchControl {
  const util::Deadline* deadline = nullptr;
  const util::CancellationToken* cancel = nullptr;
};

/// One search(): ascending-distance neighbor lists (global ids), its
/// accounting, and the merged ReportEvent stream when
/// EngineOptions::collect_report_stream is set (bit-identical at any thread
/// count — the differential contract the thread-sweep tests assert).
struct SearchResult {
  std::vector<std::vector<knn::Neighbor>> neighbors;
  EngineStats stats;
  std::vector<apsim::ReportEvent> events;
};

class ApKnnEngine {
 public:
  /// Compiles `dataset`, which the engine keeps, into board configurations.
  ApKnnEngine(knn::BinaryDataset dataset, EngineOptions options = {});

  /// Exact kNN via simulated AP execution within `control`'s budget (see
  /// SearchControl). Writes nothing to the engine but a lazily rebuilt
  /// network (see network()), so any number of threads may search one
  /// engine at once.
  SearchResult search(const knn::BinaryDataset& queries, std::size_t k,
                      const SearchControl& control) const;

  /// search() with no budget (an empty control) that keeps the result's
  /// stats and stream for last_stats() and last_report_stream(); returns
  /// the neighbor lists. For single-threaded callers only.
  std::vector<std::vector<knn::Neighbor>> search(
      const knn::BinaryDataset& queries, std::size_t k);

  /// SearchResult::stats and ::events of the last two-argument search().
  const EngineStats& last_stats() const noexcept { return stats_; }
  const std::vector<apsim::ReportEvent>& last_report_stream() const noexcept {
    return report_stream_;
  }

  /// Threads search()/compile run on: pool workers + the submitting thread.
  std::size_t simulation_threads() const noexcept {
    return pool_ == nullptr ? 1 : pool_->size() + 1;
  }

  std::size_t configurations() const noexcept { return partitions_.size(); }
  std::size_t capacity_per_config() const noexcept { return capacity_; }
  const StreamSpec& stream_spec() const noexcept { return spec_; }

  /// Query frames one configuration pass streams for `query_count`
  /// queries: ceil(query_count / S) when multiplexed, query_count
  /// otherwise — the throughput gain of Sec. VI-B.
  std::size_t frames_for(std::size_t query_count) const noexcept {
    const std::size_t per_frame = queries_per_frame();
    return (query_count + per_frame - 1) / per_frame;
  }

  /// Number of configurations the bit-parallel backend compiled (0 when the
  /// backend is kCycleAccurate or every configuration fell back).
  std::size_t bit_parallel_configurations() const noexcept;

  /// Per-configuration backend/fallback-reason counters collected while
  /// compiling (also embedded in every EngineStats this engine produces).
  const BackendCompileStats& backend_stats() const noexcept {
    return compile_stats_;
  }

  /// The compiled automata network of configuration `i` (for inspection,
  /// ANML export, and resource benches). Configurations satisfied from the
  /// artifact cache skip network construction; the network is rebuilt
  /// lazily — and deterministically — on first access, under one
  /// engine-wide lock.
  const anml::AutomataNetwork& network(std::size_t i) const;

  /// Placement report of configuration `i` on the configured board.
  apsim::PlacementResult placement(std::size_t i) const;

  /// Compiled bit-parallel program of configuration `i` (null when that
  /// configuration runs cycle-accurate).
  std::shared_ptr<const apsim::BatchProgram> program(std::size_t i) const {
    return partitions_.at(i).program;
  }

  /// Compile-input key of configuration `i`: the hash an artifact must
  /// carry for the cache to accept it (docs/ARTIFACTS.md "Key hash").
  std::uint64_t artifact_key(std::size_t i) const;

  /// Slot file the cache uses for configuration `i`; empty when
  /// EngineOptions::artifact_cache_dir is unset.
  std::string artifact_cache_file(std::size_t i) const;

  /// Writes configuration `i`'s compiled program (plus provenance metadata)
  /// to `path` as an artifact. Fails — with a message in *error — when the
  /// configuration has no bit-parallel program.
  bool save_artifact(std::size_t i, const std::string& path,
                     std::string* error = nullptr) const;

  /// Analytic cycle/report model WITHOUT simulating (used to project large
  /// workloads); mirrors the accounting search() performs.
  EngineStats project(std::size_t query_count) const;

  /// Sustained report bandwidth model of Sec. VI-C: 32*(n+d) bits per frame
  /// every cycles_per_query, with n counting each vector's S reports when
  /// multiplexed; returns Gbit/s.
  double report_bandwidth_gbps() const;

 private:
  struct Partition {
    std::size_t begin = 0;  ///< first global vector id
    std::size_t count = 0;
    /// Null after an artifact-cache hit until ensure_network() rebuilds it
    /// under network_mutex_ (mutable: rebuilding does not change observable
    /// state — construction is deterministic, so the rebuilt network is the
    /// one the compile path would have produced). Set at most once.
    mutable std::unique_ptr<anml::AutomataNetwork> network;
    /// Compiled bit-parallel program; null = use the cycle-accurate path.
    std::shared_ptr<const apsim::BatchProgram> program;
  };

  /// Builds `p`'s configuration network (and the per-macro layouts when the
  /// out-params are non-null) from the dataset slice [p.begin, p.begin +
  /// p.count) — shared by the construction path and the lazy rebuild.
  void build_network(const Partition& p,
                     std::vector<MacroLayout>* hamming_layouts,
                     std::vector<PackedGroupLayout>* packed_layouts) const;
  void ensure_network(const Partition& p) const;
  artifact::ArtifactMeta artifact_meta(const Partition& p) const;
  /// Queries one frame carries: multiplex_slices, or 1 for the base design.
  std::size_t queries_per_frame() const noexcept {
    return options_.multiplex_slices > 0 ? options_.multiplex_slices : 1;
  }

  /// One (configuration, query-frame range) unit of search() work, with its
  /// outputs and failure outcome; and the shard list plus the per-call
  /// constants every search() step reads. Both are defined in engine.cpp.
  struct Shard;
  struct SearchPlan;
  // search() runs these four steps in order. Only plan_search() and the
  // frame codec (encode/decode) know whether the design is multiplexed.
  /// search(queries, k, control) into `result`, appending to the events
  /// buffer it brings (the two-argument search reuses its last one).
  void search_into(const knn::BinaryDataset& queries, std::size_t k,
                   const SearchControl& control, SearchResult& result) const;
  SearchPlan plan_search(std::size_t query_count, std::size_t k) const;
  void run_shards(SearchPlan& plan, const knn::BinaryDataset& queries,
                  const SearchControl& control) const;
  void reduce_shard_status(const SearchPlan& plan, EngineStats& stats) const;
  void merge_shards(SearchPlan& plan, SearchResult& result) const;

  knn::BinaryDataset dataset_;
  EngineOptions options_;
  StreamSpec spec_;
  std::size_t capacity_ = 0;
  std::vector<Partition> partitions_;
  /// Guards the lazy rebuild of Partition::network — the only engine state
  /// the search path can change.
  mutable std::mutex network_mutex_;
  BackendCompileStats compile_stats_;
  EngineStats stats_;
  /// Resolved worker pool (the global pool or owned_pool_; nullptr =
  /// serial) — see EngineOptions::threads.
  util::ThreadPool* pool_ = nullptr;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  std::vector<apsim::ReportEvent> report_stream_;
};

}  // namespace apss::core
