#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace apss::util {
namespace {

TEST(ThreadPool, RunsEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ChunkedVariantCoversRange) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_chunks(
      0, kN,
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_LT(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) {
          ++hits[i];
        }
      },
      64);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ReductionMatchesSerial) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  std::atomic<long long> total{0};
  pool.parallel_for_chunks(
      0, kN,
      [&](std::size_t lo, std::size_t hi) {
        long long local = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          local += static_cast<long long>(i);
        }
        total += local;
      },
      1024);
  EXPECT_EQ(total.load(), static_cast<long long>(kN) * (kN - 1) / 2);
}

TEST(ThreadPool, NestedParallelForDegradesToSerial) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    // Nested submission must not deadlock.
    pool.parallel_for(0, 8, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 100, [&](std::size_t) { ++count; });
    ASSERT_EQ(count.load(), 100) << "round " << round;
  }
}

TEST(ThreadPool, SingleElementRange) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::size_t seen = 99;
  pool.parallel_for(7, 8, [&](std::size_t i) {
    ++count;
    seen = i;
  });
  EXPECT_EQ(count.load(), 1);
  EXPECT_EQ(seen, 7u);
}

TEST(ThreadPool, GrainLargerThanRangeRunsInline) {
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  std::size_t calls = 0;
  pool.parallel_for_chunks(
      0, 10,
      [&](std::size_t lo, std::size_t hi) {
        // One chunk, on the submitting thread (the small-range fast path).
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 10u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++calls;
      },
      /*grain=*/100);
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPool, OneThreadPoolCoversRange) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::atomic<int>> hits(500);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ExceptionRethrownOnSubmittingThread) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [&](std::size_t i) {
                          if (i == 333) {
                            throw std::runtime_error("boom");
                          }
                        }),
      std::runtime_error);
  // The pool must stay usable: the job drained, no worker died.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ExceptionInChunkedBodyAbandonsRemainingChunks) {
  ThreadPool pool(2);
  std::atomic<int> chunks_run{0};
  try {
    pool.parallel_for_chunks(
        0, 1 << 20,
        [&](std::size_t lo, std::size_t) {
          ++chunks_run;
          if (lo == 0) {
            throw std::invalid_argument("first chunk fails");
          }
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        },
        /*grain=*/64);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& ex) {
    EXPECT_STREQ(ex.what(), "first chunk fails");
  }
  // Unclaimed chunks are abandoned once the failure is recorded: far fewer
  // bodies ran than the 16384 chunks the range holds.
  EXPECT_LT(chunks_run.load(), 1 << 14);
}

TEST(ThreadPool, ThrowingBodyDoesNotSerializeLaterJobs) {
  // Regression: run_job used to reset its inside-a-job flag with a plain
  // assignment, so a throwing body left it stuck and every later
  // parallel_for on that thread silently degraded to serial execution.
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   0, 64,
                   [&](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);

  std::mutex mu;
  std::set<std::thread::id> threads_seen;
  pool.parallel_for(0, 64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    threads_seen.insert(std::this_thread::get_id());
  });
  // With the flag stuck, every iteration would run on the submitting
  // thread; 4 idle workers and 64 x 1ms bodies make >= 2 threads certain.
  EXPECT_GE(threads_seen.size(), 2u);
}

TEST(ThreadPool, ExceptionFromSubmitterParticipationPropagates) {
  // The submitting thread participates in its own job; a throw in the
  // chunk it claims must follow the same capture-and-rethrow path.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for_chunks(
                   0, 4,
                   [&](std::size_t, std::size_t) {
                     ++ran;
                     throw std::logic_error("either thread");
                   },
                   /*grain=*/1),
               std::logic_error);
  EXPECT_GE(ran.load(), 1);
  // Nested degradation still works afterwards (flag restored everywhere).
  std::atomic<int> count{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ConcurrentSubmittersShareOnePool) {
  // Several threads race parallel_for calls on the SAME pool; submission
  // is serialized (submit_mutex_), so every job still runs every iteration
  // exactly once and no submitter observes another job's state.
  ThreadPool pool(4);
  constexpr std::size_t kSubmitters = 6;
  constexpr std::size_t kRounds = 25;
  constexpr std::size_t kN = 512;
  std::vector<std::atomic<std::size_t>> totals(kSubmitters);
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::atomic<std::size_t> count{0};
        pool.parallel_for(0, kN, [&](std::size_t) { ++count; });
        totals[s] += count.load();
      }
    });
  }
  for (auto& t : submitters) {
    t.join();
  }
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(totals[s].load(), kRounds * kN) << "submitter " << s;
  }
}

TEST(ThreadPool, ExceptionFromNestedParallelForPropagates) {
  // A nested parallel_for degrades to serial execution inside the job
  // body; a throw from the NESTED loop must surface through the outer
  // job's capture-and-rethrow path, and the pool must stay healthy.
  ThreadPool pool(4);
  std::atomic<int> outer_bodies{0};
  try {
    pool.parallel_for(0, 64, [&](std::size_t i) {
      ++outer_bodies;
      pool.parallel_for(0, 8, [&](std::size_t j) {
        if (i == 5 && j == 3) {
          throw std::out_of_range("nested boom");
        }
      });
    });
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& ex) {
    EXPECT_STREQ(ex.what(), "nested boom");
  }
  EXPECT_GE(outer_bodies.load(), 1);
  // Both nesting levels still work afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, FirstExceptionInClaimOrderWinsWhenAllThrow) {
  // Every chunk throws. Exactly one exception is captured (the first to
  // record), the rest are swallowed, and each runner abandons the job
  // after its first failing claim — so at most workers + submitter bodies
  // ever run out of the 256 chunks.
  ThreadPool pool(3);
  constexpr std::size_t kChunks = 256;
  std::atomic<int> bodies_run{0};
  std::string caught;
  try {
    pool.parallel_for_chunks(
        0, kChunks,
        [&](std::size_t lo, std::size_t) {
          ++bodies_run;
          throw std::runtime_error("chunk " + std::to_string(lo));
        },
        /*grain=*/1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& ex) {
    caught = ex.what();
  }
  EXPECT_EQ(caught.rfind("chunk ", 0), 0u) << caught;
  const int runners = static_cast<int>(pool.size()) + 1;
  EXPECT_GE(bodies_run.load(), 1);
  EXPECT_LE(bodies_run.load(), runners);
  // The winning exception came from a chunk that actually ran: with every
  // body throwing on its first claim, that chunk index is below the number
  // of runners.
  const std::size_t winner = std::stoul(caught.substr(6));
  EXPECT_LT(winner, static_cast<std::size_t>(runners));
  // Drained clean: the next job is unaffected.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

}  // namespace
}  // namespace apss::util
