// serve::KnnServer contract suite (ISSUE 10, docs/ROBUSTNESS.md
// "Serving"): every submitted request resolves exactly once with a typed
// ResponseCode, answers are bit-identical to a standalone engine run at
// any worker count, overload sheds deterministically, drain loses
// nothing, and the watchdog unwedges a stalled batch. Runs under TSan in
// CI (label: serve).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "knn/dataset.hpp"
#include "serve/server.hpp"
#include "util/fault_injection.hpp"

namespace apss::serve {
namespace {

/// Every test starts and ends with the process-global injector disarmed.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::instance().disarm_all(); }
  void TearDown() override { util::FaultInjector::instance().disarm_all(); }
};

constexpr std::size_t kDims = 32;
constexpr std::size_t kVectors = 120;
constexpr std::size_t kK = 5;

knn::BinaryDataset bed_data() {
  return knn::BinaryDataset::uniform(kVectors, kDims, 901);
}

ServerOptions bed_options(std::size_t workers) {
  ServerOptions options;
  options.k = kK;
  options.workers = workers;
  options.engine.threads = 1;  // serial batches; scale-out is via workers
  // Several board configurations so batches really shard.
  options.engine.max_vectors_per_config = 40;
  return options;
}

// ---------------------------------------------------------------------------
// Oracle bit-identity: concurrent batched serving vs a single-flight
// standalone engine, at 1 and 4 serial workers and at 2 workers sharing the
// engine's 2-thread pool.

TEST_F(ServeTest, ConcurrentClientsMatchSingleFlightOracle) {
  const auto data = bed_data();
  const auto queries = knn::perturbed_queries(data, 48, 0.15, 902);

  core::EngineOptions oracle_options;
  oracle_options.threads = 1;
  oracle_options.max_vectors_per_config = 40;
  core::ApKnnEngine oracle(data, oracle_options);
  const auto want = oracle.search(queries, kK);

  for (const auto& [workers, threads] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {4, 1}, {2, 2}}) {
    ServerOptions options = bed_options(workers);
    options.engine.threads = threads;
    KnnServer server(data, options);
    // 4 client threads race 12 submissions each; batching composition is
    // scheduling-dependent, the ANSWERS must not be.
    std::vector<std::future<Response>> futures(queries.size());
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t q = c; q < queries.size(); q += 4) {
          futures[q] = server.submit(queries.vector(q));
        }
      });
    }
    for (auto& client : clients) {
      client.join();
    }
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const Response response = futures[q].get();
      ASSERT_EQ(response.code, ResponseCode::kOk)
          << "workers=" << workers << " threads=" << threads << " query "
          << q;
      EXPECT_EQ(response.neighbors, want[q])
          << "workers=" << workers << " threads=" << threads << " query "
          << q;
      EXPECT_GE(response.batch_seq, 1u);
      EXPECT_GE(response.batch_size, 1u);
    }
    server.drain();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, queries.size());
    EXPECT_EQ(stats.ok, queries.size());
    EXPECT_TRUE(stats.accounted());
    EXPECT_EQ(stats.batched_requests, queries.size());
    EXPECT_GE(stats.batches, 1u);
  }
}

TEST_F(ServeTest, BlockingSearchConvenience) {
  const auto data = bed_data();
  KnnServer server(data, bed_options(1));
  const Response response = server.search(data.vector(3));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.neighbors.size(), kK);
  // The query IS vector 3: it must come back first at distance 0.
  EXPECT_EQ(response.neighbors[0].id, 3u);
  EXPECT_EQ(response.neighbors[0].distance, 0u);
}

// ---------------------------------------------------------------------------
// Admission: typed rejections, the expired-at-submit fast path, shedding.

TEST_F(ServeTest, DimensionMismatchRejectsInvalidArgument) {
  KnnServer server(bed_data(), bed_options(1));
  const Response response =
      server.submit(util::BitVector(kDims + 1)).get();
  EXPECT_EQ(response.code, ResponseCode::kInvalidArgument);
  EXPECT_TRUE(response.neighbors.empty());
}

TEST_F(ServeTest, ExpiredDeadlineResolvesBeforeAnySimulatorWork) {
  // The satellite fix: a deadline already expired at submit time resolves
  // kDeadlineExceeded at ADMISSION. With defer_start there are no workers
  // at all, so a ready future proves no simulator work was involved.
  ServerOptions options = bed_options(1);
  options.defer_start = true;
  KnnServer server(bed_data(), options);
  auto future =
      server.submit(util::BitVector(kDims), util::Deadline::after_ms(-5));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const Response response = future.get();
  EXPECT_EQ(response.code, ResponseCode::kDeadlineExceeded);
  EXPECT_EQ(response.batch_seq, 0u);  // never joined a batch

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.expired_at_admission, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.admitted, 0u);
  server.drain();
}

TEST_F(ServeTest, QueueFullShedsDeterministically) {
  // No workers running: exactly max_queue_depth requests are admitted, the
  // rest shed kOverloaded immediately — deterministic, not a race.
  ServerOptions options = bed_options(2);
  options.defer_start = true;
  options.max_queue_depth = 4;
  const auto data = bed_data();
  KnnServer server(data, options);

  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < 10; ++i) {
    futures.push_back(server.submit(data.vector(i % data.size())));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (i < 4) {
      EXPECT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
                std::future_status::timeout)
          << "request " << i << " should still be queued";
    } else {
      ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "request " << i << " should have been shed";
      EXPECT_EQ(futures[i].get().code, ResponseCode::kOverloaded);
    }
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_overload, 6u);
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.queue_high_water, 4u);

  // Starting the workers serves the admitted four normally.
  server.start();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(futures[i].get().code, ResponseCode::kOk);
  }
  server.drain();
  EXPECT_TRUE(server.stats().accounted());
}

TEST_F(ServeTest, InflightCapSheds) {
  ServerOptions options = bed_options(1);
  options.defer_start = true;
  options.max_queue_depth = 100;
  options.max_inflight = 3;
  const auto data = bed_data();
  KnnServer server(data, options);
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    futures.push_back(server.submit(data.vector(i)));
  }
  EXPECT_EQ(server.stats().rejected_overload, 3u);
  EXPECT_EQ(server.stats().admitted, 3u);
  server.start();
  server.drain();
  EXPECT_TRUE(server.stats().accounted());
}

TEST_F(ServeTest, SubmitAfterDrainRejectsShuttingDown) {
  const auto data = bed_data();
  KnnServer server(data, bed_options(1));
  server.drain();
  EXPECT_TRUE(server.draining());
  const Response response = server.submit(data.vector(0)).get();
  EXPECT_EQ(response.code, ResponseCode::kShuttingDown);
  server.drain();  // idempotent
  EXPECT_TRUE(server.stats().accounted());
}

TEST_F(ServeTest, DrainWithoutStartResolvesStagedRequests) {
  ServerOptions options = bed_options(1);
  options.defer_start = true;
  const auto data = bed_data();
  KnnServer server(data, options);
  auto future = server.submit(data.vector(0));
  server.drain();
  EXPECT_EQ(future.get().code, ResponseCode::kShuttingDown);
  EXPECT_TRUE(server.stats().accounted());
}

// ---------------------------------------------------------------------------
// Drain under load: every response exactly once, nothing lost.

TEST_F(ServeTest, DrainUnderLoadLosesNothing) {
  const auto data = bed_data();
  const auto queries = knn::perturbed_queries(data, 16, 0.15, 903);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ServerOptions options = bed_options(workers);
    options.max_queue_depth = 64;
    options.max_inflight = 128;
    KnnServer server(data, options);

    // 4 clients hammer the server until drain shuts the door on them.
    std::vector<std::vector<std::future<Response>>> per_client(4);
    std::vector<std::thread> clients;
    std::atomic<bool> go{true};
    for (std::size_t c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        std::size_t q = c;
        while (go.load(std::memory_order_acquire)) {
          per_client[c].push_back(
              server.submit(queries.vector(q % queries.size())));
          q += 4;
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.drain();  // concurrent with active submitters
    go.store(false, std::memory_order_release);
    for (auto& client : clients) {
      client.join();
    }

    std::size_t total = 0;
    std::size_t ok = 0;
    for (auto& futures : per_client) {
      for (auto& future : futures) {
        // Exactly-once: after drain every future is ready, none hangs.
        ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
                  std::future_status::ready)
            << "workers=" << workers;
        const Response response = future.get();
        ok += response.ok();
        EXPECT_TRUE(response.code == ResponseCode::kOk ||
                    response.code == ResponseCode::kOverloaded ||
                    response.code == ResponseCode::kShuttingDown)
            << "workers=" << workers << " unexpected code "
            << to_string(response.code);
        ++total;
      }
    }
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, total) << "workers=" << workers;
    EXPECT_TRUE(stats.accounted()) << "workers=" << workers;
    EXPECT_EQ(stats.ok, ok) << "workers=" << workers;
    EXPECT_GE(ok, 1u) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Deadlines in flight and the watchdog.

TEST_F(ServeTest, QueuedRequestDeadlineIsReapedBehindStalledBatch) {
  // Worker 0 wedges on a stalled batch; a short-deadline request queued
  // behind it must resolve kDeadlineExceeded from the watchdog's queue
  // reap, never reaching a batch.
  ServerOptions options = bed_options(1);
  options.watchdog_timeout_ms = 0;  // deadline reaping only
  options.watchdog_poll_ms = 1;
  const auto data = bed_data();

  util::FaultInjector::Plan stall;
  stall.fail = false;
  stall.fail_on_hit = 1;
  stall.fail_count = 1;
  stall.stall_ms = 1000;  // generous: must outlast the reap under TSan load
  util::FaultInjector::instance().arm(util::kFaultServeBatch, stall);

  KnnServer server(data, options);
  auto stalled = server.submit(data.vector(0));
  // Give the worker time to take the first batch (and hit the stall).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto reaped = server.submit(data.vector(1), 30.0);

  const Response reaped_response = reaped.get();
  EXPECT_EQ(reaped_response.code, ResponseCode::kDeadlineExceeded);
  EXPECT_EQ(reaped_response.batch_seq, 0u) << "must be reaped from the queue";
  EXPECT_EQ(stalled.get().code, ResponseCode::kOk);
  server.drain();
  EXPECT_TRUE(server.stats().accounted());
}

TEST_F(ServeTest, WatchdogFailsWedgedBatch) {
  ServerOptions options = bed_options(1);
  // High enough that no healthy batch trips it even under TSan at full
  // ctest parallelism (the follow-up search below runs against the same
  // watchdog), low enough that the wedge resolves well before the stall.
  options.watchdog_timeout_ms = 1500;
  options.watchdog_poll_ms = 1;
  const auto data = bed_data();

  // The first batch wedges for far longer than the watchdog timeout.
  util::FaultInjector::Plan stall;
  stall.fail = false;
  stall.fail_on_hit = 1;
  stall.fail_count = 1;
  stall.stall_ms = 5000;
  util::FaultInjector::instance().arm(util::kFaultServeBatch, stall);

  KnnServer server(data, options);
  const auto start = std::chrono::steady_clock::now();
  auto wedged = server.submit(data.vector(0));
  const Response response = wedged.get();
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  // The watchdog resolves the request long before the stall ends.
  EXPECT_EQ(response.code, ResponseCode::kInternal);
  EXPECT_LT(waited_ms, 4500.0);
  EXPECT_GE(server.stats().watchdog_fired, 1u);

  util::FaultInjector::instance().disarm_all();
  // The server survives: the worker takes fresh batches afterwards.
  EXPECT_EQ(server.search(data.vector(1)).code, ResponseCode::kOk);
  server.drain();
  EXPECT_TRUE(server.stats().accounted());
}

TEST_F(ServeTest, MidBatchExpiryLeavesBatchMatesBitIdentical) {
  // Two requests share one batch; the short-deadline member expires while
  // the batch stalls, the unlimited member still gets the exact answer.
  const auto data = bed_data();
  core::EngineOptions oracle_options;
  oracle_options.threads = 1;
  oracle_options.max_vectors_per_config = 40;
  core::ApKnnEngine oracle(data, oracle_options);
  knn::BinaryDataset one(1, kDims);
  one.set_vector(0, data.vector(7));
  const auto want = oracle.search(one, kK);

  ServerOptions options = bed_options(1);
  options.defer_start = true;
  options.watchdog_timeout_ms = 0;
  options.watchdog_poll_ms = 1;
  options.batch_window_ms = 0;  // flush whatever is queued at once
  KnnServer server(data, options);

  util::FaultInjector::Plan stall;
  stall.fail = false;
  stall.fail_on_hit = 1;
  stall.fail_count = 1;
  stall.stall_ms = 150;
  util::FaultInjector::instance().arm(util::kFaultServeBatch, stall);

  // Stage both BEFORE starting workers so they land in the same batch.
  auto doomed = server.submit(data.vector(3), 40.0);
  auto survivor = server.submit(data.vector(7));
  server.start();

  const Response doomed_response = doomed.get();
  const Response survivor_response = survivor.get();
  EXPECT_EQ(doomed_response.code, ResponseCode::kDeadlineExceeded);
  ASSERT_EQ(survivor_response.code, ResponseCode::kOk);
  EXPECT_EQ(survivor_response.neighbors, want[0]);
  EXPECT_EQ(survivor_response.batch_size, 2u);
  EXPECT_EQ(doomed_response.batch_seq, survivor_response.batch_seq);
  server.drain();
  EXPECT_TRUE(server.stats().accounted());
}

}  // namespace
}  // namespace apss::serve
