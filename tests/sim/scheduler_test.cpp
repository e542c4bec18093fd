#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dmp {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(SimTime::millis(30), [&] { order.push_back(3); });
  sched.schedule_at(SimTime::millis(10), [&] { order.push_back(1); });
  sched.schedule_at(SimTime::millis(20), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), SimTime::millis(30));
}

TEST(Scheduler, FifoTieBreakAtSameInstant) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(SimTime::millis(5), [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, RelativeScheduling) {
  Scheduler sched;
  SimTime fired = SimTime::zero();
  sched.schedule_at(SimTime::millis(10), [&] {
    sched.schedule_after(SimTime::millis(25), [&] { fired = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired, SimTime::millis(35));
}

TEST(Scheduler, RejectsPastEvents) {
  Scheduler sched;
  sched.schedule_at(SimTime::millis(10), [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(SimTime::millis(5), [] {}),
               std::invalid_argument);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  int fired = 0;
  auto handle = sched.schedule_at(SimTime::millis(10), [&] { ++fired; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sched.run();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, HandleNotPendingAfterFiring) {
  Scheduler sched;
  auto handle = sched.schedule_at(SimTime::millis(1), [] {});
  sched.run();
  EXPECT_FALSE(handle.pending());
}

TEST(Scheduler, RunUntilStopsAtHorizonAndAdvancesClock) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(SimTime::millis(10), [&] { ++fired; });
  sched.schedule_at(SimTime::millis(50), [&] { ++fired; });
  const auto executed = sched.run_until(SimTime::millis(20));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), SimTime::millis(20));
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) sched.schedule_after(SimTime::millis(1), tick);
  };
  sched.schedule_at(SimTime::zero(), tick);
  const auto executed = sched.run();
  EXPECT_EQ(executed, 100u);
  EXPECT_EQ(sched.now(), SimTime::millis(99));
}

TEST(Scheduler, ReschedulingPatternLikeTcpTimer) {
  // Cancel-and-rearm repeatedly; only the final timer instance fires.
  Scheduler sched;
  int fired = 0;
  EventHandle timer;
  for (int i = 0; i < 50; ++i) {
    timer.cancel();
    timer = sched.schedule_at(SimTime::millis(100 + i), [&] { ++fired; });
  }
  sched.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, CountsExecutedAndCancelledSeparately) {
  Scheduler sched;
  auto doomed = sched.schedule_at(SimTime::millis(5), [] {});
  sched.schedule_at(SimTime::millis(10), [] {});
  sched.schedule_at(SimTime::millis(20), [] {});
  EXPECT_EQ(sched.events_pending(), 3u);
  EXPECT_EQ(sched.events_scheduled(), 3u);

  doomed.cancel();
  // Lazy cancellation: the entry stays in the heap until popped, so it
  // still counts as pending until the run drains it.
  EXPECT_EQ(sched.events_pending(), 3u);

  sched.run();
  EXPECT_EQ(sched.events_executed(), 2u);
  EXPECT_EQ(sched.events_cancelled(), 1u);
  EXPECT_EQ(sched.events_pending(), 0u);
  EXPECT_EQ(sched.max_events_pending(), 3u);
}

TEST(Scheduler, MaxPendingTracksHighWater) {
  Scheduler sched;
  // Burst of 5, drained, then a burst of 2: high water must stay at 5.
  for (int i = 0; i < 5; ++i) sched.schedule_at(SimTime::millis(i + 1), [] {});
  sched.run();
  sched.schedule_at(SimTime::millis(100), [] {});
  sched.schedule_at(SimTime::millis(101), [] {});
  sched.run();
  EXPECT_EQ(sched.max_events_pending(), 5u);
  EXPECT_EQ(sched.events_executed(), 7u);
  EXPECT_EQ(sched.events_cancelled(), 0u);
}

TEST(Scheduler, StepHonorsHorizon) {
  Scheduler sched;
  sched.schedule_at(SimTime::millis(10), [] {});
  EXPECT_FALSE(sched.step(SimTime::millis(5)));
  EXPECT_TRUE(sched.step(SimTime::millis(10)));
  EXPECT_FALSE(sched.step(SimTime::max()));
}

// The poll-loop peek: the earliest queued instant, without running it.
TEST(Scheduler, NextEventTimePeeksWithoutRunning) {
  Scheduler sched;
  EXPECT_EQ(sched.next_event_time(), SimTime::max());
  int fired = 0;
  sched.post_at(SimTime::millis(30), [&] { ++fired; });
  sched.post_at(SimTime::millis(10), [&] { ++fired; });
  EXPECT_EQ(sched.next_event_time(), SimTime::millis(10));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.now(), SimTime::zero());
  sched.run_until(SimTime::millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.next_event_time(), SimTime::millis(30));
  // A cancelled timer still counts: a sleeper wakes early, never late.
  EventHandle timer = sched.schedule_at(SimTime::millis(25), [&] { ++fired; });
  timer.cancel();
  EXPECT_EQ(sched.next_event_time(), SimTime::millis(25));
  sched.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.next_event_time(), SimTime::max());
}

}  // namespace
}  // namespace dmp
