// Symbol-stream multiplexing (Sec. VI-B, Fig. 6): the report-code packing,
// the frame encoder and the slice-replicated network, then the engine's
// multiplexed design (EngineOptions::multiplex_slices) end to end.

#include "core/opt/stream_multiplexing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apsim/placement.hpp"
#include "apss_test_support.hpp"
#include "core/engine.hpp"
#include "util/rng.hpp"

namespace apss::core {
namespace {

TEST(MuxReportCode, RoundTrips) {
  const std::uint32_t code = MuxReportCode::encode(1234, 6);
  EXPECT_EQ(MuxReportCode::vector_id(code), 1234u);
  EXPECT_EQ(MuxReportCode::slice(code), 6u);
}

TEST(MultiplexedStreamEncoder, PacksSevenQueriesIntoOneFrame) {
  const StreamSpec spec{8, 1};
  const MultiplexedStreamEncoder enc(spec);
  knn::BinaryDataset queries(7, 8);
  // Query s has bit pattern: dim i set iff i == s.
  for (std::size_t s = 0; s < 7; ++s) {
    queries.set(s, s, true);
  }
  std::vector<std::uint8_t> frame;
  enc.append_group(queries, 0, 7, frame);
  ASSERT_EQ(frame.size(), spec.cycles_per_query());
  EXPECT_EQ(frame[0], Alphabet::kSof);
  // Data symbol for dim i carries bit s=i set (query i has dim i set).
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(frame[1 + i], Alphabet::data(1u << i)) << i;
  }
  EXPECT_EQ(frame[8], Alphabet::data(0));  // dim 7: no query has it set
  EXPECT_FALSE(Alphabet::is_control(frame[1]));
}

TEST(MultiplexedStreamEncoder, RejectsBadGroups) {
  const MultiplexedStreamEncoder enc(StreamSpec{8, 1});
  const auto queries = knn::BinaryDataset::uniform(10, 8, 1);
  std::vector<std::uint8_t> out;
  EXPECT_THROW(enc.append_group(queries, 0, 0, out), std::invalid_argument);
  EXPECT_THROW(enc.append_group(queries, 0, 8, out), std::invalid_argument);
  EXPECT_THROW(enc.append_group(queries, 8, 3, out), std::invalid_argument);
}

TEST(MultiplexedNetwork, ReplicatesMacrosPerSlice) {
  const auto data = knn::BinaryDataset::uniform(3, 8, 2);
  anml::AutomataNetwork net;
  const auto layouts = build_multiplexed_network(net, data, 7);
  EXPECT_EQ(layouts.size(), 21u);
  EXPECT_TRUE(net.validate().empty());
  // 7x the states of a single-slice network, as the paper notes the
  // current generation lacks capacity for.
  anml::AutomataNetwork single;
  build_multiplexed_network(single, data, 1);
  EXPECT_EQ(net.stats().ste_count, 7 * single.stats().ste_count);
}

/// The frame of queries [begin, begin + count) built one query bit at a
/// time: the encoding's definition.
std::vector<std::uint8_t> per_bit_frame(const StreamSpec& spec,
                                        const knn::BinaryDataset& queries,
                                        std::size_t begin, std::size_t count) {
  std::vector<std::uint8_t> frame = {Alphabet::kSof};
  for (std::size_t i = 0; i < spec.dims; ++i) {
    std::uint8_t payload = 0;
    for (std::size_t s = 0; s < count; ++s) {
      payload |= static_cast<std::uint8_t>(queries.get(begin + s, i) << s);
    }
    frame.push_back(Alphabet::data(payload));
  }
  frame.insert(frame.end(), spec.fill_symbols(), Alphabet::kFill);
  frame.push_back(Alphabet::kEof);
  return frame;
}

TEST(MultiplexedStreamEncoder, OneQueryFrameEqualsTheBaseDesignFrame) {
  // The engine encodes base-design frames as one-query multiplexed frames.
  // Every frame, at every slice count and for a partial last group, must
  // equal the per-bit frame: the dimensions straddle the whole bytes the
  // encoder spreads by table and the dims % 8 it writes bit by bit.
  constexpr std::size_t kQueries = 10;
  for (const std::size_t dims : {1u, 7u, 8u, 63u, 64u, 65u, 127u, 130u}) {
    const auto queries = knn::BinaryDataset::uniform(kQueries, dims, 607 + dims);
    const StreamSpec spec{dims, collector_levels_for(dims)};
    const MultiplexedStreamEncoder mux(spec);
    const SymbolStreamEncoder plain(spec);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      std::vector<std::uint8_t> frame;
      mux.append_group(queries, q, 1, frame);
      EXPECT_EQ(frame, plain.encode_query(queries.vector(q)))
          << "d=" << dims << " q=" << q;
    }
    for (std::size_t slices = 1; slices <= kMaxSlices; ++slices) {
      std::vector<std::uint8_t> stream = {Alphabet::kFill};
      std::vector<std::uint8_t> want = stream;
      for (std::size_t begin = 0; begin < kQueries; begin += slices) {
        const std::size_t count = std::min(slices, kQueries - begin);
        mux.append_group(queries, begin, count, stream);
        const auto frame = per_bit_frame(spec, queries, begin, count);
        want.insert(want.end(), frame.begin(), frame.end());
      }
      EXPECT_EQ(stream, want) << "d=" << dims << " S=" << slices;
    }
  }
}

EngineOptions mux_options(
    std::size_t slices,
    SimulationBackend backend = SimulationBackend::kCycleAccurate) {
  EngineOptions opt;
  opt.multiplex_slices = slices;
  opt.backend = backend;
  return opt;
}

TEST(MultiplexedEngine, MatchesCpuExactForSevenParallelQueries) {
  util::Rng rng(600);
  const auto data = knn::BinaryDataset::uniform(24, 16, rng.next());
  const auto queries = knn::BinaryDataset::uniform(7, 16, rng.next());
  ApKnnEngine engine(data, mux_options(7));
  test::expect_exact_knn_results(data, queries, 5, engine.search(queries, 5));
  EXPECT_EQ(engine.last_stats().simulated_cycles,
            engine.stream_spec().cycles_per_query());  // one frame
}

TEST(MultiplexedEngine, HandlesPartialLastGroup) {
  const auto data = knn::BinaryDataset::uniform(12, 12, 601);
  const auto queries = knn::BinaryDataset::uniform(10, 12, 602);  // 7 + 3
  for (const auto backend : {SimulationBackend::kCycleAccurate,
                             SimulationBackend::kBitParallel}) {
    ApKnnEngine engine(data, mux_options(7, backend));
    const auto results = engine.search(queries, 3);
    ASSERT_EQ(results.size(), 10u);
    test::expect_exact_knn_results(data, queries, 3, results);
  }
}

TEST(MultiplexedEngine, SevenfoldThroughputInFrames) {
  const auto data = knn::BinaryDataset::uniform(4, 16, 603);
  const ApKnnEngine mux(data, mux_options(7));
  EXPECT_EQ(mux.frames_for(4096), 586u);  // ceil(4096/7)
  EXPECT_EQ(mux.frames_for(7), 1u);
  EXPECT_EQ(mux.frames_for(8), 2u);
  const ApKnnEngine base(data);
  EXPECT_EQ(base.frames_for(4096), 4096u);
  // The device-time model sees 7x fewer frames...
  EXPECT_EQ(base.project(4096).simulated_cycles,
            4096 * base.stream_spec().cycles_per_query());
  EXPECT_EQ(mux.project(4096).simulated_cycles,
            586 * mux.stream_spec().cycles_per_query());
  // ...and the report-bandwidth model 7x the reports per frame: at equal
  // capacity n (forced here), a frame's reports grow from n to 7n.
  EngineOptions capped = mux_options(7);
  capped.max_vectors_per_config = 4;
  const ApKnnEngine capped_mux(data, capped);
  capped.multiplex_slices = 0;
  const ApKnnEngine capped_base(data, capped);
  const double n = 4.0;
  const double d = 16.0;
  EXPECT_DOUBLE_EQ(
      capped_mux.report_bandwidth_gbps() / capped_base.report_bandwidth_gbps(),
      (7 * n + d) / (n + d));
}

TEST(MultiplexedEngine, RejectsBadSliceCountsAndPacking) {
  const auto data = knn::BinaryDataset::uniform(6, 8, 606);
  EXPECT_THROW(ApKnnEngine(data, mux_options(8)),
               std::invalid_argument);
  EngineOptions packed = mux_options(7, SimulationBackend::kBitParallel);
  packed.packing_group_size = 4;
  EXPECT_THROW(ApKnnEngine(data, packed), std::invalid_argument);
}

TEST(MultiplexedEngine, CapacityCountsEverySliceReplica) {
  // Board capacity is the number of copies of ONE vector's S replicas that
  // fit the board, so a multiplexed configuration holds fewer vectors.
  const auto data = knn::BinaryDataset::uniform(4, 128, 608);
  const ApKnnEngine base(data);
  const ApKnnEngine mux(data, mux_options(7));
  anml::AutomataNetwork replicas;
  build_multiplexed_network(replicas, data, 7, {}, 0, 1);
  EXPECT_EQ(mux.capacity_per_config(),
            apsim::max_copies(apsim::footprint_of(replicas),
                              apsim::DeviceGeometry::one_rank()));
  EXPECT_LT(mux.capacity_per_config(), base.capacity_per_config());
  EXPECT_EQ(mux.network(0).stats().ste_count,
            7 * base.network(0).stats().ste_count);
}

TEST(MultiplexedEngine, DuplicateVectorsAcrossConfigurationsMatchScan) {
  // S = 7 with duplicate vectors inside and across configurations: query
  // rows copy duplicated vectors, so a distance-0 tie spans several ids
  // and k cuts it inside one slice's per-configuration list (and again in
  // the host merge). Answers must equal knn_scan, tie order included, on
  // both backends at 1 and 4 threads; the collected report streams must be
  // identical across backends.
  util::Rng rng(609);
  knn::BinaryDataset data = test::random_dataset(rng, 20, 16);
  const auto copy_row = [&](std::size_t from, std::size_t to) {
    data.set_vector(to, data.vector(from));
  };
  copy_row(1, 5);   // same configuration (0)
  copy_row(1, 9);   // configuration 1
  copy_row(3, 12);  // configurations 0, 1 and 2
  copy_row(3, 17);
  copy_row(3, 6);
  knn::BinaryDataset queries = test::random_dataset(rng, 11, 16);
  queries.set_vector(2, data.vector(1));  // frame 0, slice 2
  queries.set_vector(6, data.vector(3));  // frame 0, slice 6
  queries.set_vector(8, data.vector(3));  // frame 1, slice 1 (partial frame)

  std::vector<apsim::ReportEvent> reference_stream;
  for (const auto backend : {SimulationBackend::kCycleAccurate,
                             SimulationBackend::kBitParallel}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      EngineOptions opt = mux_options(7, backend);
      opt.max_vectors_per_config = 8;  // 3 configurations (8 + 8 + 4)
      opt.threads = threads;
      opt.queries_per_chunk = 1;
      opt.collect_report_stream = true;
      ApKnnEngine engine(data, opt);
      ASSERT_EQ(engine.configurations(), 3u);
      const bool bit = backend == SimulationBackend::kBitParallel;
      const std::string ctx = std::string(bit ? "bit" : "cycle") +
                              " threads=" + std::to_string(threads);
      for (const std::size_t k :
           {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        test::expect_exact_knn_results(data, queries, k,
                                       engine.search(queries, k),
                                       ctx + " k=" + std::to_string(k));
      }
      if (reference_stream.empty()) {
        reference_stream = engine.last_report_stream();
        ASSERT_FALSE(reference_stream.empty());
      } else {
        EXPECT_EQ(engine.last_report_stream(), reference_stream) << ctx;
      }
      const BackendCompileStats& bs = engine.last_stats().backend;
      if (bit) {
        EXPECT_EQ(bs.multiplexed, 3u) << ctx;
        EXPECT_EQ(bs.bit_parallel, 3u) << ctx;
        EXPECT_EQ(bs.fallback, 0u) << ctx;
      } else {
        EXPECT_EQ(bs.multiplexed, 0u) << ctx;
      }
    }
  }
}

TEST(MultiplexedNetwork, SliceMacrosUseTernaryBitMatches) {
  // Fig. 6: slice-s STEs must discriminate exactly bit s (plus the control
  // flag), i.e. the ternary pattern 0b*......s.
  const auto data = knn::BinaryDataset::uniform(1, 4, 604);
  anml::AutomataNetwork net;
  const auto layouts = build_multiplexed_network(net, data, 3);
  for (std::size_t s = 0; s < 3; ++s) {
    const MacroLayout& m = layouts[s];
    const anml::SymbolSet& sym = net.element(m.match[0]).symbols;
    const bool bit = data.get(0, 0);
    const auto expected = anml::SymbolSet::ternary(
        static_cast<std::uint8_t>(bit ? (1u << s) : 0),
        static_cast<std::uint8_t>(0x80u | (1u << s)));
    EXPECT_EQ(sym, expected) << "slice " << s;
  }
}

TEST(MultiplexedEngine, ResourceCostIsSevenfold) {
  // Sec. VI-B: "Replicating the base design 7x is infeasible since our
  // design already uses 41-91% of the board capacity." Verify the placement
  // model agrees: 7 slices of a 1024-vector 64-dim design overflow a rank.
  const ApKnnEngine tiny(knn::BinaryDataset::uniform(2, 8, 605),
                         mux_options(7));
  const auto r = tiny.placement(0);
  EXPECT_TRUE(r.placed);

  // Scale check via footprints instead of building 7168 macros: a 64-dim
  // macro is ~141 STEs; 7 x 1024 x 141 x 1.15 > 393216 (one rank).
  apsim::MacroFootprint macro;
  macro.stes = 141;
  macro.counters = 1;
  macro.reporting = 1;
  const std::size_t capacity =
      apsim::max_copies(macro, apsim::DeviceGeometry::one_rank());
  EXPECT_LT(capacity, 7 * 1024u);
}

}  // namespace
}  // namespace apss::core
