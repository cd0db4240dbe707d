// bench::time_rounds is the one loop that repeats timed bench arms, and the
// CI perf gates read medians of its per-round ratios; bench::open_report
// gives every BENCH_*.json its context record. Pinned here.

#include "bench_util.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

namespace apss::bench {
namespace {

TEST(TimeRounds, ReversesTheArmOrderEveryRound) {
  std::vector<std::size_t> order;
  std::vector<std::function<double()>> arms;
  for (std::size_t a = 0; a < 3; ++a) {
    arms.push_back([&order, a] {
      order.push_back(a);
      return 0.0;
    });
  }
  time_rounds(arms, 4);
  EXPECT_EQ(order,
            (std::vector<std::size_t>{0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0}));
}

TEST(TimeRounds, AppendsOneSamplePerArmPerRound) {
  constexpr std::size_t kRounds = 5;
  double calls = 0;
  const auto arm = [&] { return calls++; };
  const auto samples = time_rounds({arm, arm}, kRounds);
  ASSERT_EQ(samples.size(), 2u);
  for (std::size_t r = 0; r < kRounds; ++r) {
    // Each arm's sample is the call it made in that round: arm 0 runs
    // first in even rounds and second in odd ones.
    const double first = 2.0 * static_cast<double>(r);
    ASSERT_EQ(samples[0].size(), kRounds);
    ASSERT_EQ(samples[1].size(), kRounds);
    EXPECT_EQ(samples[0][r], r % 2 == 0 ? first : first + 1);
    EXPECT_EQ(samples[1][r], r % 2 == 0 ? first + 1 : first);
  }
}

// Round r's ratio is 1 + j/1000 with j = 37r mod rounds, a permutation of
// 0..rounds-1, so the sorted ratios are 1, 1.001, ... in scrambled rounds.
TEST(TimeRounds, PerRoundRatioMedianAtOddAndEvenRoundCounts) {
  struct Case {
    std::size_t rounds;
    double median;  // middle j, or the mean of the two middle ones
    double q1;      // linear interpolation at rank 0.25 (rounds - 1)
    double q3;
  };
  for (const Case& c : {Case{101, 1.050, 1.025, 1.075},
                        Case{500, 1.2495, 1.12475, 1.37425}}) {
    std::size_t round = 0;
    const auto ratio = [&] {
      return 1.0 + static_cast<double>(round * 37 % c.rounds) / 1000.0;
    };
    // The denominator arm runs first in even rounds and last in odd ones;
    // whichever runs last moves the round on.
    const auto den = [&] {
      const double wall = 2.0;
      round += round % 2 == 1;
      return wall;
    };
    const auto num = [&] {
      const double wall = 2.0 * ratio();
      round += round % 2 == 0;
      return wall;
    };
    const auto samples = time_rounds({den, num}, c.rounds);
    ASSERT_EQ(round, c.rounds);
    const Spread s = spread_of(round_ratios(samples[1], samples[0]));
    SCOPED_TRACE(c.rounds);
    EXPECT_EQ(s.reps, c.rounds);
    EXPECT_NEAR(s.median, c.median, 1e-12);
    EXPECT_NEAR(s.q1, c.q1, 1e-12);
    EXPECT_NEAR(s.q3, c.q3, 1e-12);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_NEAR(s.max, 1.0 + static_cast<double>(c.rounds - 1) / 1000.0,
                1e-12);
  }
}

TEST(OpenReport, OpensWithTheContextRecord) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("apss_bench_util_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  ::setenv("APSS_BENCH_DIR", dir.c_str(), 1);
  std::string path;
  {
    util::BenchReport report = open_report("probe");
    report.write(util::BenchRecord("first"));
    path = report.path();
  }
  ::unsetenv("APSS_BENCH_DIR");
  std::ifstream in(path);
  std::string context, first;
  ASSERT_TRUE(std::getline(in, context));
  ASSERT_TRUE(std::getline(in, first));
  std::filesystem::remove_all(dir);

  EXPECT_EQ(context.rfind("{\"bench\":\"probe\",\"case\":\"context\"", 0), 0u)
      << context;
  for (const char* key : {"\"hardware_threads\":", "\"nproc\":",
                          "\"build_type\":", "\"compiler\":",
                          "\"match_count_isa\":"}) {
    EXPECT_NE(context.find(key), std::string::npos) << key << " in "
                                                    << context;
  }
  EXPECT_NE(context.find(std::string("\"match_count_isa\":\"") +
                         apsim::resolve_match_counts().isa + "\""),
            std::string::npos)
      << context;
  EXPECT_NE(first.find("\"case\":\"first\""), std::string::npos) << first;
}

}  // namespace
}  // namespace apss::bench
