// Google-benchmark microbenchmarks for the hot kernels: the Hamming scan
// (CPU baseline), top-k strategies, stream encoding, cycle-accurate and
// bit-parallel simulation throughput, the closed-form match-count kernels
// (two-class and multi-class, the resolved build against the POPCNT one)
// and frame front end (the resolved build against the portable one), a
// closed-form frame under a report limit, a multi-configuration engine
// search, and ITQ encoding. These quantify
// the SIMULATION substrate itself (how fast this repo executes automata),
// complementing the modeled device times in the table benches.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "apsim/batch_simulator.hpp"
#include "apsim/simulator.hpp"
#include "bench_util.hpp"
#include "core/engine.hpp"
#include "core/hamming_macro.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "core/stream.hpp"
#include "knn/exact.hpp"
#include "quant/itq.hpp"
#include "util/bench_report.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"

namespace {

using namespace apss;

void BM_HammingDistance(benchmark::State& state) {
  const std::size_t dims = state.range(0);
  const auto data = knn::BinaryDataset::uniform(2, dims, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::hamming_distance(data.row(0), data.row(1)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HammingDistance)->Arg(64)->Arg(128)->Arg(256);

void BM_CpuScanQuery(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const auto data = knn::BinaryDataset::uniform(n, 128, 2);
  const auto query = knn::BinaryDataset::uniform(1, 128, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn::knn_scan(data, query.row(0), 4));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_CpuScanQuery)->Arg(1024)->Arg(1u << 16);

void BM_TopK(benchmark::State& state) {
  const auto strategy = static_cast<knn::TopKStrategy>(state.range(1));
  const auto data = knn::BinaryDataset::uniform(state.range(0), 128, 4);
  const auto query = knn::BinaryDataset::uniform(1, 128, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn::knn_scan(data, query.row(0), 16, strategy));
  }
}
BENCHMARK(BM_TopK)
    ->ArgsProduct({{4096}, {0 /*heap*/, 1 /*select*/}});

void BM_StreamEncode(benchmark::State& state) {
  // 16 base-design frames, one query each, as the engine encodes a shard.
  const std::size_t dims = state.range(0);
  const core::SymbolStreamEncoder enc(core::StreamSpec{dims, 1});
  const auto queries = knn::BinaryDataset::uniform(16, dims, 6);
  std::vector<std::uint8_t> stream;
  for (auto _ : state) {
    stream.clear();
    for (std::size_t q = 0; q < queries.size(); ++q) {
      enc.append_group(queries, q, 1, stream);
    }
    benchmark::DoNotOptimize(stream.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_StreamEncode)->Arg(128);

void BM_SimulatorQueryFrame(benchmark::State& state) {
  // One full query frame against `n` macros of d=128: measures simulated
  // symbols/second of the frontier-based engine.
  const std::size_t n = state.range(0);
  const auto data = knn::BinaryDataset::uniform(n, 128, 7);
  anml::AutomataNetwork net;
  for (std::size_t i = 0; i < n; ++i) {
    core::append_hamming_macro(net, data.vector(i),
                               static_cast<std::uint32_t>(i));
  }
  apsim::Simulator sim(net);
  const core::SymbolStreamEncoder enc(core::StreamSpec{128, 1});
  const auto query = knn::BinaryDataset::uniform(1, 128, 8);
  std::vector<std::uint8_t> stream;
  enc.append_query(query.row(0), stream);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(stream));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          stream.size());
  state.counters["symbols/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * stream.size(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorQueryFrame)->Arg(16)->Arg(128)->Arg(1024);

/// The bit-parallel program of BM_SimulatorQueryFrame's network: `n`
/// macros of d = 128.
std::shared_ptr<const apsim::BatchProgram> query_frame_program(std::size_t n) {
  const auto data = knn::BinaryDataset::uniform(n, 128, 7);
  anml::AutomataNetwork net;
  std::vector<core::MacroLayout> layouts;
  for (std::size_t i = 0; i < n; ++i) {
    layouts.push_back(core::append_hamming_macro(
        net, data.vector(i), static_cast<std::uint32_t>(i)));
  }
  return apsim::BatchProgram::try_compile(net, layouts, {});
}

/// BM_SimulatorQueryFrame's one-query frame.
std::vector<std::uint8_t> query_frame() {
  const core::SymbolStreamEncoder enc(core::StreamSpec{128, 1});
  const auto query = knn::BinaryDataset::uniform(1, 128, 8);
  std::vector<std::uint8_t> stream;
  enc.append_query(query.row(0), stream);
  return stream;
}

void BM_BatchSimulatorQueryFrame(benchmark::State& state) {
  // The bit-parallel counterpart of BM_SimulatorQueryFrame: same network,
  // same stream, packed 64-macros-per-word execution.
  apsim::BatchSimulator sim(query_frame_program(state.range(0)));
  const std::vector<std::uint8_t> stream = query_frame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(stream));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          stream.size());
  state.counters["symbols/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * stream.size(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchSimulatorQueryFrame)->Arg(16)->Arg(128)->Arg(1024);

void BM_ClosedFormFrameCut(benchmark::State& state, std::size_t floor_rank) {
  // BM_BatchSimulatorQueryFrame's frame through the checkpointed run() at
  // report limit arg 1 (0 = uncut): the closed-form frame's block-floor
  // select, candidate list and emit, with every frame's fixed costs.
  // 1264/100 is one configuration of a k = 100 multi-configuration search,
  // 5888/10 one of packed-cold-start's widest configurations at its k. The
  // floored rows add a count floor at the count of the frame's
  // floor_rank-th report, as a later configuration's running bound does:
  // at the multi-config-batch point such a frame keeps ~28 events.
  const auto program = query_frame_program(state.range(0));
  apsim::BatchSimulator sim(program);
  const std::vector<std::uint8_t> stream = query_frame();
  const auto limit = static_cast<std::size_t>(state.range(1));
  std::vector<std::uint32_t> floor;
  if (floor_rank > 0) {
    const auto events = apsim::BatchSimulator(program).run(stream);
    floor.push_back(static_cast<std::uint32_t>(
        stream.size() - events.at(floor_rank - 1).cycle));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.run(stream, util::RunControl{}, limit, floor));
  }
  state.counters["closed_form"] =
      static_cast<double>(sim.closed_form_frames()) /
      static_cast<double>(state.iterations());
  state.counters["events"] = static_cast<double>(sim.reports().size());
}
void BM_ClosedFormFrameCut(benchmark::State& state) {
  BM_ClosedFormFrameCut(state, 0);
}
BENCHMARK(BM_ClosedFormFrameCut)
    ->Args({1024, 10})
    ->Args({1024, 0})
    ->Args({1264, 100})
    ->Args({1264, 0})
    ->Args({5888, 10});
BENCHMARK_CAPTURE(BM_ClosedFormFrameCut, floored, 25)->Args({1264, 100});
BENCHMARK_CAPTURE(BM_ClosedFormFrameCut, floored, 5)->Args({5888, 10});

void BM_MatchCounts(benchmark::State& state) {
  // One closed-form frame's match-count sweep at d = 128, counts and group
  // maxima. Arg 0 = lanes (5888: packed-cold-start's configuration size);
  // arg 1 = 0 for the kernels resolve_match_counts() picks on this CPU
  // (counter vpopcntdq = 1 when those are the AVX-512 VPOPCNTDQ ones), 1
  // for the POPCNT build; arg 2 = the classes whose rows
  // the sweep reads: 1 for the two-class kernel every plain or packed
  // program now runs (class 0's two dimension words per lane, on an engine
  // frame's query), 2 for the multi-class kernel over both classes' rows.
  const std::size_t lanes = state.range(0);
  const bool two_class = state.range(2) == 1;
  const std::size_t row_words = 2 * static_cast<std::size_t>(state.range(2));
  const std::size_t blocks =
      (lanes + apsim::kMatchBlockLanes - 1) / apsim::kMatchBlockLanes;
  util::Rng rng(12);
  std::vector<std::uint64_t> lane_bits(blocks * row_words *
                                       apsim::kMatchBlockLanes);
  for (auto& word : lane_bits) {
    word = rng.next();
  }
  std::vector<std::uint64_t> query(row_words);
  for (auto& word : query) {
    word = rng.next();
  }
  // Every engine data symbol is in exactly one class: e covers all
  // d = 128 dimensions and base = d.
  const std::vector<std::uint64_t> exact(row_words, ~std::uint64_t{0});
  std::vector<std::uint32_t> counts(blocks * apsim::kMatchBlockLanes);
  std::vector<std::uint32_t> maxima(blocks);
  apsim::MatchCountKernels kernels = apsim::resolve_match_counts();
  if (state.range(1) == 1) {
    const apsim::MatchCountKernels* popcnt =
        apsim::detail::popcnt_match_counts();
    if (popcnt == nullptr) {
      state.SkipWithError("no POPCNT build on this architecture");
      return;
    }
    kernels = *popcnt;
  }
  for (auto _ : state) {
    if (two_class) {
      kernels.two_class(lane_bits.data(), query.data(), exact.data(),
                        64 * static_cast<std::uint32_t>(row_words), row_words,
                        lanes, counts.data(), maxima.data());
    } else {
      kernels.multi_class(lane_bits.data(), query.data(), row_words, blocks,
                          counts.data(), maxima.data());
    }
    benchmark::DoNotOptimize(counts.data());
    benchmark::DoNotOptimize(maxima.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
  const apsim::MatchCountKernels* avx512 =
      apsim::detail::avx512_match_counts();
  state.counters["vpopcntdq"] =
      avx512 != nullptr && kernels.two_class == avx512->two_class;
}
BENCHMARK(BM_MatchCounts)->ArgsProduct({{1024, 1264, 5888}, {0, 1}, {1, 2}});

void BM_FrameFrontEnd(benchmark::State& state) {
  // One closed-form frame's front end at d = 128: the template check over
  // the 258 symbols between its SOF and EOF, and every class's query mask
  // from its 128 data symbols. Arg 0 = the program's match classes: 2 for
  // BM_BatchSimulatorQueryFrame's program and frame (every plain or packed
  // program has at most two), 14 for a 7-slice multiplexed program and its
  // first frame of 7 queries. Arg 1 = 0 for the build
  // resolve_match_counts() picks on this CPU (counter avx512 = 1 when it
  // is the AVX-512 one), 1 for the portable build the POPCNT one shares.
  std::shared_ptr<const apsim::BatchProgram> program = query_frame_program(8);
  std::vector<std::uint8_t> frame = query_frame();
  if (state.range(0) == 14) {
    anml::AutomataNetwork net;
    const auto layouts = core::build_multiplexed_network(
        net, knn::BinaryDataset::uniform(8, 128, 16), 7);
    program = apsim::BatchProgram::try_compile(net, layouts, {});
    std::size_t frames = 0;
    frame = core::SymbolStreamEncoder(core::StreamSpec{128, 1})
                .encode_multiplexed(knn::BinaryDataset::uniform(7, 128, 17),
                                    frames);
  }
  const apsim::BatchProgramState program_state = program->state();
  std::vector<std::uint8_t> class_bytes(2 * 256);
  for (std::size_t sym = 0; sym < 256; ++sym) {
    class_bytes[sym] =
        static_cast<std::uint8_t>(program_state.sym_classes[sym]);
    class_bytes[256 + sym] =
        static_cast<std::uint8_t>(program_state.sym_classes[sym] >> 8);
  }
  const std::size_t masks = std::max<std::size_t>(program->match_classes(), 2);
  std::vector<std::uint64_t> query(masks * 2);
  apsim::FrameFrontEnd front_end = apsim::resolve_match_counts().front_end;
  if (state.range(1) == 1) {
    const apsim::MatchCountKernels* popcnt =
        apsim::detail::popcnt_match_counts();
    if (popcnt == nullptr) {
      state.SkipWithError("no POPCNT build on this architecture");
      return;
    }
    front_end = popcnt->front_end;
  }
  const std::size_t length = 2 * 128 + 1 + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(front_end(
        frame.data() + 1, length, 128, program_state.sof, program_state.eof,
        program_state.sym_classes.data(), class_bytes.data(), masks,
        query.data()));
    benchmark::ClobberMemory();
  }
  const apsim::MatchCountKernels* avx512 =
      apsim::detail::avx512_match_counts();
  state.counters["avx512"] =
      avx512 != nullptr && front_end == avx512->front_end;
  state.counters["classes"] = static_cast<double>(program->match_classes());
}
BENCHMARK(BM_FrameFrontEnd)->ArgsProduct({{2, 14}, {0, 1}});

void BM_EngineSearch(benchmark::State& state) {
  const auto data = knn::BinaryDataset::uniform(256, 64, 9);
  core::ApKnnEngine engine(data);
  const auto queries = knn::BinaryDataset::uniform(4, 64, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.search(queries, 4));
  }
}
BENCHMARK(BM_EngineSearch);

void BM_EngineSearchMultiConfig(benchmark::State& state) {
  // One bit-parallel, 1-thread search of 64 queries at k = 100 over four
  // full 1264-vector configurations: the frames (cut at each query's
  // running bound after the first configuration), the decode and the host
  // merge across configurations.
  const auto data = knn::BinaryDataset::uniform(4 * 1264, 128, 13);
  core::EngineOptions opt;
  opt.backend = core::SimulationBackend::kBitParallel;
  opt.threads = 1;
  core::ApKnnEngine engine(data, opt);
  const auto queries = knn::perturbed_queries(data, 64, 0.1, 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.search(queries, 100));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
  state.counters["configurations"] =
      static_cast<double>(engine.configurations());
}
BENCHMARK(BM_EngineSearchMultiConfig);

void BM_ItqEncode(benchmark::State& state) {
  const quant::Matrix features =
      quant::gaussian_cluster_features(256, 64, 4, 2.0, 0.5, 11);
  quant::ItqOptions opt;
  opt.bits = 64;
  opt.iterations = 10;
  const quant::ItqQuantizer q = quant::ItqQuantizer::fit(features, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.encode(features.row(0)));
  }
}
BENCHMARK(BM_ItqEncode);

/// Console output as usual, plus one BENCH_micro.json line per run:
/// total/per-iteration wall seconds and any rate counters as params.
class JsonLinesReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonLinesReporter(util::BenchReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      util::BenchRecord rec(run.benchmark_name());
      rec.param("iterations", static_cast<std::uint64_t>(run.iterations));
      if (run.iterations > 0) {
        rec.param("seconds_per_iteration",
                  run.real_accumulated_time /
                      static_cast<double>(run.iterations));
      }
      for (const auto& [name, counter] : run.counters) {
        rec.param(name, static_cast<double>(counter));
      }
      rec.wall_seconds(run.real_accumulated_time);
      report_.write(rec);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  util::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  util::BenchReport report = bench::open_report("micro");
  JsonLinesReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (report.ok()) {
    std::printf("recorded -> %s\n", report.path().c_str());
  }
  return 0;
}
