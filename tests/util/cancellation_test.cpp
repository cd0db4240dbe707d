// Deadline / CancellationToken / RunControl unit tests, including the
// already-expired-at-construction edge case the serving layer's admission
// fast path relies on (docs/ROBUSTNESS.md "Serving"): a request whose
// budget is gone when it is submitted must be detectable WITHOUT running
// any simulator work — Deadline::expired() has to be true immediately,
// not only at the first frame checkpoint.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "util/cancellation.hpp"

namespace apss::util {
namespace {

TEST(DeadlineTest, DefaultIsUnsetAndNeverExpires) {
  const Deadline d;
  EXPECT_FALSE(d.set());
  EXPECT_FALSE(d.expired());
}

TEST(DeadlineTest, ExpiredAtConstructionIsVisibleImmediately) {
  // Zero and negative budgets are expired by the time anyone can look —
  // the admission fast path must shed such requests before any simulator
  // work is enqueued, so this must hold without an intervening sleep.
  const Deadline zero = Deadline::after_ms(0);
  EXPECT_TRUE(zero.set());
  EXPECT_TRUE(zero.expired());

  const Deadline negative = Deadline::after_ms(-5);
  EXPECT_TRUE(negative.set());
  EXPECT_TRUE(negative.expired());
}

TEST(DeadlineTest, FutureDeadlineNotExpiredUntilItPasses) {
  const Deadline d = Deadline::after_ms(60'000);
  EXPECT_TRUE(d.set());
  EXPECT_FALSE(d.expired());

  const Deadline soon = Deadline::after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(soon.expired());

  // Set further out than the coarse clock's slack (a few timer ticks):
  // expired() starts on the coarse pre-check and must still see the
  // deadline pass.
  EXPECT_LT(Deadline::coarse_slack(), std::chrono::milliseconds(120));
  const Deadline later = Deadline::after_ms(120);
  EXPECT_FALSE(later.expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(130));
  EXPECT_TRUE(later.expired());
}

TEST(DeadlineTest, LatestPrefersTheLongerBudgetAndUnsetWins) {
  const Deadline unset;
  const Deadline shorter = Deadline::after_ms(-5);  // already expired
  const Deadline longer = Deadline::after_ms(60'000);

  // Unset = never expires, so it is always the latest.
  EXPECT_FALSE(Deadline::latest(unset, shorter).set());
  EXPECT_FALSE(Deadline::latest(shorter, unset).set());
  EXPECT_FALSE(Deadline::latest(unset, unset).set());

  const Deadline picked = Deadline::latest(shorter, longer);
  ASSERT_TRUE(picked.set());
  EXPECT_FALSE(picked.expired());
  // Symmetric.
  EXPECT_FALSE(Deadline::latest(longer, shorter).expired());
  EXPECT_TRUE(Deadline::latest(shorter, shorter).expired());
}

TEST(CancellationTokenTest, OneWayAndVisibleAcrossThreads) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  std::thread t([&] { token.request_cancel(); });
  t.join();
  EXPECT_TRUE(token.cancelled());
  token.request_cancel();  // idempotent; there is no un-cancel
  EXPECT_TRUE(token.cancelled());
}

TEST(RunControlTest, EngagedOnlyWithASetDeadlineOrAToken) {
  RunControl idle;
  EXPECT_FALSE(idle.engaged());
  idle.checkpoint();  // no-op, must not throw

  const Deadline unset;
  RunControl with_unset;
  with_unset.deadline = &unset;
  EXPECT_FALSE(with_unset.engaged());

  const Deadline far = Deadline::after_ms(60'000);
  RunControl with_deadline;
  with_deadline.deadline = &far;
  EXPECT_TRUE(with_deadline.engaged());
  with_deadline.checkpoint();  // not expired, must not throw

  CancellationToken token;
  RunControl with_token;
  with_token.cancel = &token;
  EXPECT_TRUE(with_token.engaged());
}

TEST(RunControlTest, CheckpointThrowsTypedErrorsCancelFirst) {
  const Deadline expired = Deadline::after_ms(-1);
  RunControl ctl;
  ctl.deadline = &expired;
  EXPECT_THROW(ctl.checkpoint(), DeadlineExceeded);

  // Cancellation wins the attribution when both fire.
  CancellationToken token;
  token.request_cancel();
  ctl.cancel = &token;
  EXPECT_THROW(ctl.checkpoint(), OperationCancelled);
}

}  // namespace
}  // namespace apss::util
