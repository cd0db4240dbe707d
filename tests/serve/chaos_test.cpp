// Chaos extension for the serving core (ISSUE 10): drives the two serve
// fault sites (serve.admit, serve.batch) plus an engine-level degrade
// through the server at 1 and 4 workers, asserting the typed-outcome and
// zero-leak contracts hold under injected failure. Runs under TSan in CI
// (labels: serve, chaos).

#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "knn/dataset.hpp"
#include "serve/server.hpp"
#include "util/fault_injection.hpp"

namespace apss::serve {
namespace {

class ServeChaos : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::instance().disarm_all(); }
  void TearDown() override { util::FaultInjector::instance().disarm_all(); }
};

constexpr std::size_t kDims = 32;
constexpr std::size_t kVectors = 120;
constexpr std::size_t kK = 5;

knn::BinaryDataset bed_data() {
  return knn::BinaryDataset::uniform(kVectors, kDims, 911);
}

ServerOptions bed_options(std::size_t workers) {
  ServerOptions options;
  options.k = kK;
  options.workers = workers;
  options.engine.threads = 1;
  options.engine.max_vectors_per_config = 40;
  return options;
}

TEST_F(ServeChaos, AdmitFaultWindowFailsExactlyItsRequests) {
  const auto data = bed_data();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    // Admission attempts 3..5 fail kInternal; hits are counted over
    // sequential submits, so the window is deterministic.
    util::FaultInjector::Plan plan;
    plan.fail_on_hit = 3;
    plan.fail_count = 3;
    util::FaultInjector::instance().arm(util::kFaultServeAdmit, plan);

    KnnServer server(data, bed_options(workers));
    std::vector<std::future<Response>> futures;
    for (std::size_t i = 0; i < 12; ++i) {
      futures.push_back(server.submit(data.vector(i)));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const Response response = futures[i].get();
      const bool in_window = i >= 2 && i < 5;  // hits are 1-based
      EXPECT_EQ(response.code, in_window ? ResponseCode::kInternal
                                         : ResponseCode::kOk)
          << "workers=" << workers << " request " << i;
    }
    server.drain();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.internal_errors, 3u) << "workers=" << workers;
    EXPECT_EQ(stats.ok, 9u) << "workers=" << workers;
    EXPECT_EQ(stats.admitted, 9u) << "workers=" << workers;
    EXPECT_TRUE(stats.accounted()) << "workers=" << workers;
    util::FaultInjector::instance().disarm_all();
  }
}

TEST_F(ServeChaos, BatchFaultFailsThatBatchOnly) {
  const auto data = bed_data();
  // Single worker, one request per batch (submit-then-wait), so batch
  // sequence numbers are deterministic: batch 2 fails, 1 and 3..6 serve.
  util::FaultInjector::Plan plan;
  plan.fail_on_hit = 2;
  plan.fail_count = 1;
  util::FaultInjector::instance().arm(util::kFaultServeBatch, plan);

  KnnServer server(data, bed_options(1));
  for (std::size_t i = 0; i < 6; ++i) {
    const Response response = server.search(data.vector(i));
    EXPECT_EQ(response.code,
              i == 1 ? ResponseCode::kInternal : ResponseCode::kOk)
        << "request " << i;
  }
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.internal_errors, 1u);
  EXPECT_EQ(stats.ok, 5u);
  EXPECT_TRUE(stats.accounted());
}

TEST_F(ServeChaos, BatchFaultsUnderConcurrencyStayAccounted) {
  // At 4 workers which requests land in the failing window is
  // scheduling-dependent — and so is the number of batches (one worker may
  // coalesce everything into a single frame), so the window is anchored at
  // the FIRST batch. The invariants are typed outcomes and zero leaks.
  const auto data = bed_data();
  util::FaultInjector::Plan plan;
  plan.fail_on_hit = 1;
  plan.fail_count = 2;
  util::FaultInjector::instance().arm(util::kFaultServeBatch, plan);

  KnnServer server(data, bed_options(4));
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < 32; ++i) {
    futures.push_back(server.submit(data.vector(i % data.size())));
  }
  std::size_t internal = 0;
  for (auto& future : futures) {
    const Response response = future.get();
    ASSERT_TRUE(response.code == ResponseCode::kOk ||
                response.code == ResponseCode::kInternal)
        << to_string(response.code);
    internal += response.code == ResponseCode::kInternal;
  }
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.internal_errors, internal);
  EXPECT_GE(internal, 1u);  // at least batch hit 2 existed
  EXPECT_TRUE(stats.accounted());
}

TEST_F(ServeChaos, EngineDegradeStaysOkAndIsCounted) {
  // A persistent bit-parallel frame fault forces the engine's kRetry
  // policy to degrade configurations to the cycle-accurate reference:
  // answers stay exact and kOk, and the server counts the degraded batch.
  // The 4-worker arm loads every program from a warm artifact cache, so no
  // configuration holds a network, and runs 32 requests in batches of at
  // most 4: several workers then rebuild one configuration's network on
  // the shared engine at the same time.
  const auto data = bed_data();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const std::string ctx = "workers=" + std::to_string(workers);
    const std::size_t requests = workers == 1 ? 1 : 32;
    ServerOptions options = bed_options(workers);
    options.engine.backend = core::SimulationBackend::kBitParallel;
    if (workers > 1) {
      const std::string dir = ::testing::TempDir() + "apss_serve_degrade";
      std::filesystem::remove_all(dir);
      options.engine.artifact_cache_dir = dir;
      options.max_batch = 4;
    }
    std::vector<Response> want;
    {
      KnnServer baseline_server(data, options);  // warms the cache
      for (std::size_t i = 0; i < requests; ++i) {
        want.push_back(baseline_server.search(data.vector(9 + i)));
        ASSERT_TRUE(want.back().ok()) << ctx << " request " << i;
      }
    }
    if (workers > 1) {
      const core::ApKnnEngine probe(data, options.engine);
      ASSERT_EQ(probe.backend_stats().artifact.hits, probe.configurations());
    }

    util::FaultInjector::Plan plan;  // every bit-parallel frame attempt
    util::FaultInjector::instance().arm(util::kFaultBatchFrame, plan);
    KnnServer server(data, options);
    std::vector<std::future<Response>> futures;
    for (std::size_t i = 0; i < requests; ++i) {
      futures.push_back(server.submit(data.vector(9 + i)));
    }
    for (std::size_t i = 0; i < requests; ++i) {
      const Response response = futures[i].get();
      ASSERT_EQ(response.code, ResponseCode::kOk) << ctx << " request " << i;
      EXPECT_EQ(response.neighbors, want[i].neighbors)
          << ctx << " request " << i;
    }
    util::FaultInjector::instance().disarm_all();
    server.drain();
    const ServerStats stats = server.stats();
    EXPECT_GE(stats.degraded_batches, 1u) << ctx;
    EXPECT_TRUE(stats.accounted()) << ctx;
  }
}

}  // namespace
}  // namespace apss::serve
