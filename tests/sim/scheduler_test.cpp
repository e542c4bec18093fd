#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace dmp {
namespace {

// A timer callback that counts its firings.
struct Shots {
  int fired = 0;
  static void fire(void* ctx) { ++static_cast<Shots*>(ctx)->fired; }
};

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.post_at(SimTime::millis(30), [&] { order.push_back(3); });
  sched.post_at(SimTime::millis(10), [&] { order.push_back(1); });
  sched.post_at(SimTime::millis(20), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), SimTime::millis(30));
}

TEST(Scheduler, FifoTieBreakAtSameInstant) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.post_at(SimTime::millis(5), [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, RelativeScheduling) {
  Scheduler sched;
  SimTime fired = SimTime::zero();
  sched.post_at(SimTime::millis(10), [&] {
    sched.post_after(SimTime::millis(25), [&] { fired = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired, SimTime::millis(35));
}

TEST(Scheduler, RejectsPastEvents) {
  Scheduler sched;
  sched.post_at(SimTime::millis(10), [] {});
  sched.run();
  EXPECT_THROW(sched.post_at(SimTime::millis(5), [] {}),
               std::invalid_argument);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  Shots shots;
  const auto timer = sched.register_timer(&Shots::fire, &shots);
  EXPECT_FALSE(sched.armed(timer));
  sched.arm(timer, SimTime::millis(10));
  EXPECT_TRUE(sched.armed(timer));
  sched.disarm(timer);
  EXPECT_FALSE(sched.armed(timer));
  sched.run();
  EXPECT_EQ(shots.fired, 0);
}

TEST(Scheduler, TimerDisarmedAfterFiring) {
  Scheduler sched;
  Shots shots;
  const auto timer = sched.register_timer(&Shots::fire, &shots);
  sched.arm(timer, SimTime::millis(1));
  sched.run();
  EXPECT_EQ(shots.fired, 1);
  EXPECT_FALSE(sched.armed(timer));
}

TEST(Scheduler, RunUntilStopsAtHorizonAndAdvancesClock) {
  Scheduler sched;
  int fired = 0;
  sched.post_at(SimTime::millis(10), [&] { ++fired; });
  sched.post_at(SimTime::millis(50), [&] { ++fired; });
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
    if (++count < 100) sched.post_after(SimTime::millis(1), tick);
  };
  sched.post_at(SimTime::zero(), tick);
  const auto executed = sched.run();
  EXPECT_EQ(executed, 100u);
  EXPECT_EQ(sched.now(), SimTime::millis(99));
}

TEST(Scheduler, ReschedulingPatternLikeTcpTimer) {
  // Re-arm repeatedly; only the final deadline fires, the rest count as
  // cancelled.
  Scheduler sched;
  Shots shots;
  const auto timer = sched.register_timer(&Shots::fire, &shots);
  for (int i = 0; i < 50; ++i) sched.arm(timer, SimTime::millis(100 + i));
  sched.run();
  EXPECT_EQ(shots.fired, 1);
  EXPECT_EQ(sched.now(), SimTime::millis(149));
  EXPECT_EQ(sched.events_scheduled(), 50u);
  EXPECT_EQ(sched.events_cancelled(), 49u);
}

TEST(Scheduler, CountsExecutedAndCancelledSeparately) {
  Scheduler sched;
  Shots shots;
  const auto doomed = sched.register_timer(&Shots::fire, &shots);
  sched.arm(doomed, SimTime::millis(5));
  sched.post_at(SimTime::millis(10), [] {});
  sched.post_at(SimTime::millis(20), [] {});
  EXPECT_EQ(sched.pending_events(), 3u);
  EXPECT_EQ(sched.events_scheduled(), 3u);

  sched.disarm(doomed);
  // The disarmed deadline's entry stays queued until popped, so it still
  // counts as pending until the run drains it.
  EXPECT_EQ(sched.pending_events(), 3u);

  sched.run();
  EXPECT_EQ(sched.events_executed(), 2u);
  EXPECT_EQ(sched.events_cancelled(), 1u);
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.max_events_pending(), 3u);
}

TEST(Scheduler, MaxPendingTracksHighWater) {
  Scheduler sched;
  // Burst of 5, drained, then a burst of 2: high water must stay at 5.
  for (int i = 0; i < 5; ++i) sched.post_at(SimTime::millis(i + 1), [] {});
  sched.run();
  sched.post_at(SimTime::millis(100), [] {});
  sched.post_at(SimTime::millis(101), [] {});
  sched.run();
  EXPECT_EQ(sched.max_events_pending(), 5u);
  EXPECT_EQ(sched.events_executed(), 7u);
  EXPECT_EQ(sched.events_cancelled(), 0u);
}

TEST(Scheduler, StepHonorsHorizon) {
  Scheduler sched;
  sched.post_at(SimTime::millis(10), [] {});
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
  // A disarmed timer still counts: a sleeper wakes early, never late.
  Shots shots;
  const auto timer = sched.register_timer(&Shots::fire, &shots);
  sched.arm(timer, SimTime::millis(25));
  sched.disarm(timer);
  EXPECT_EQ(sched.next_event_time(), SimTime::millis(25));
  sched.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(shots.fired, 0);
  EXPECT_EQ(sched.next_event_time(), SimTime::max());
}

// The poll-loop contract the socket server relies on: it sleeps until
// next_event_time() and then runs to it.  A timer re-armed later in place
// leaves its entry at the old deadline, so the sleeper wakes early, never
// late; running to a skip-only pop executes nothing and leaves now() at
// the horizon, as the cancelled pop of a one-entry-per-arm timer did.
TEST(Scheduler, NextEventTimeWakesEarlyNeverLate) {
  for (const std::uint64_t seed : {7u, 11u}) {
    Scheduler sched;
    Shots shots;
    const auto timer = sched.register_timer(&Shots::fire, &shots);
    sched.arm(timer, SimTime::millis(10));
    sched.arm(timer, SimTime::millis(30));
    sched.post_at(SimTime::millis(20), [] {});
    EXPECT_EQ(sched.next_event_time(), SimTime::millis(10));
    EXPECT_EQ(sched.run_until(sched.next_event_time()), 0u);
    EXPECT_EQ(sched.now(), SimTime::millis(10));
    EXPECT_EQ(shots.fired, 0);
    EXPECT_LE(sched.next_event_time(), SimTime::millis(20));
    EXPECT_EQ(sched.run_until(SimTime::millis(20)), 1u);
    EXPECT_EQ(sched.next_event_time(), SimTime::millis(30));
    EXPECT_EQ(sched.run_until(SimTime::millis(30)), 1u);
    EXPECT_EQ(shots.fired, 1);
    EXPECT_EQ(sched.events_cancelled(), 1u);
    EXPECT_EQ(sched.next_event_time(), SimTime::max());

    // A poll loop over random re-arms: each wake-up is at or before the
    // true next deadline, and the timer fires exactly at it.
    std::mt19937_64 rng(seed);
    std::vector<SimTime> fired_at;
    struct Log {
      Scheduler* sched;
      std::vector<SimTime>* at;
      static void fire(void* ctx) {
        auto* log = static_cast<Log*>(ctx);
        log->at->push_back(log->sched->now());
      }
    } log{&sched, &fired_at};
    const auto polled = sched.register_timer(&Log::fire, &log);
    SimTime deadline = SimTime::max();
    for (int i = 0; i < 2000; ++i) {
      const SimTime now = sched.now();
      if (rng() % 3 != 0 || deadline == SimTime::max()) {
        deadline = now + SimTime::micros(static_cast<std::int64_t>(
                             rng() % 5000));
        sched.arm(polled, deadline);
      }
      const SimTime wake = sched.next_event_time();
      ASSERT_LE(wake, deadline) << "poll " << i;
      const std::size_t before = fired_at.size();
      sched.run_until(wake);
      EXPECT_EQ(sched.now(), std::max(now, wake));
      if (fired_at.size() > before) {
        ASSERT_EQ(fired_at.back(), deadline) << "poll " << i;
        deadline = SimTime::max();
      }
    }
  }
}

// --- watches ---

// A watch port that logs the clock and the pops executed so far.
struct Watcher {
  Scheduler* sched;
  std::vector<std::pair<std::int64_t, std::uint64_t>> runs;
  static void run(void* ctx) {
    auto* w = static_cast<Watcher*>(ctx);
    w->runs.emplace_back(w->sched->now().ns(), w->sched->events_dispatched());
  }
};

TEST(SchedulerWatch, RunsBeforeTheFirstPopAtOrAfterItsTime) {
  Scheduler sched;
  Watcher w{&sched, {}};
  const std::uint32_t port = sched.register_port(&Watcher::run, &w);
  std::vector<int> order;
  sched.post_at(SimTime::millis(10), [&] { order.push_back(1); });
  sched.post_at(SimTime::millis(20), [&] { order.push_back(2); });
  sched.post_at(SimTime::millis(30), [&] { order.push_back(3); });
  sched.watch(port, SimTime::millis(20));
  sched.run();
  // After the pop at 10 ms, before the one at 20 ms, once.
  ASSERT_EQ(w.runs.size(), 1u);
  EXPECT_EQ(w.runs[0].first, SimTime::millis(10).ns());
  EXPECT_EQ(w.runs[0].second, 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));

  // Between pops: before the first pop after it.
  sched.post_at(SimTime::millis(40), [&] { order.push_back(4); });
  sched.watch(port, SimTime::millis(35));
  sched.run();
  ASSERT_EQ(w.runs.size(), 2u);
  EXPECT_EQ(w.runs[1].second, 3u);
  EXPECT_EQ(order.back(), 4);
}

TEST(SchedulerWatch, RunsAtTheEndOfARunWhoseHorizonReachesIt) {
  Scheduler sched;
  Watcher w{&sched, {}};
  const std::uint32_t port = sched.register_port(&Watcher::run, &w);
  sched.post_at(SimTime::millis(50), [] {});
  sched.watch(port, SimTime::millis(20));
  sched.run_until(SimTime::millis(10));  // short of it: waits
  EXPECT_TRUE(w.runs.empty());
  sched.run_until(SimTime::millis(20));  // reaches it, with no pop due
  ASSERT_EQ(w.runs.size(), 1u);
  EXPECT_EQ(w.runs[0].second, 0u);
  EXPECT_EQ(sched.now(), SimTime::millis(20));
  // A watch may post what the same run pops.
  struct Poster {
    Scheduler* sched;
    int popped = 0;
    static void run(void* ctx) {
      auto* p = static_cast<Poster*>(ctx);
      p->sched->post_at(SimTime::millis(30), [p] { ++p->popped; });
    }
  } poster{&sched};
  const std::uint32_t post_port = sched.register_port(&Poster::run, &poster);
  sched.watch(post_port, SimTime::millis(25));
  sched.run_until(SimTime::millis(40));
  EXPECT_EQ(poster.popped, 1);
  // An empty queue: run() still runs a pending watch.
  sched.run();
  sched.watch(port, SimTime::seconds(1));
  sched.run();
  EXPECT_EQ(w.runs.size(), 2u);
}

TEST(SchedulerWatch, CountsNowhereAndNextEventTimeReportsIt) {
  Scheduler sched;
  Watcher w{&sched, {}};
  const std::uint32_t port = sched.register_port(&Watcher::run, &w);
  SchedProfile profile;
  sched.set_profiler(&profile);
  sched.post_at(SimTime::millis(30), [] {});
  EXPECT_EQ(sched.next_event_time(), SimTime::millis(30));
  sched.watch(port, SimTime::millis(10));
  EXPECT_EQ(sched.next_event_time(), SimTime::millis(10));
  EXPECT_EQ(sched.pending_events(), 1u);
  // Watching again moves it; unwatching drops it.
  sched.watch(port, SimTime::millis(20));
  EXPECT_EQ(sched.next_event_time(), SimTime::millis(20));
  sched.unwatch(port);
  EXPECT_EQ(sched.next_event_time(), SimTime::millis(30));
  sched.watch(port, SimTime::millis(20));
  const std::uint64_t scheduled = sched.events_scheduled();
  sched.run();
  EXPECT_EQ(w.runs.size(), 1u);
  EXPECT_EQ(sched.events_executed(), 1u);
  EXPECT_EQ(sched.events_dispatched(), 1u);
  EXPECT_EQ(sched.events_cancelled(), 0u);
  EXPECT_EQ(sched.events_scheduled(), scheduled);
  EXPECT_EQ(sched.max_events_pending(), 1u);
  EXPECT_EQ(profile.total_executed(), 1u);
  EXPECT_EQ(sched.next_event_time(), SimTime::max());
  EXPECT_THROW(sched.watch(port, SimTime::millis(1)), std::invalid_argument);
}

TEST(SchedulerWatch, KeyedWatchRunsAtItsVirtualEventsKey) {
  // A virtual event keyed by a real claim made between two posts at the
  // same nanosecond orders between them: its watch runs after the first
  // and before the second, with the clock at its time.
  Scheduler sched;
  Watcher w{&sched, {}};
  const std::uint32_t port = sched.register_port(&Watcher::run, &w);
  std::vector<int> order;
  sched.post_at(SimTime::millis(10), [&] { order.push_back(1); });
  const std::uint64_t id = sched.add_virtual(
      SimTime::millis(10), sched.claim_seq(), 0, EventCategory::kOther);
  sched.post_at(SimTime::millis(10), [&] { order.push_back(2); });
  sched.watch_past(port, id);
  sched.run();
  ASSERT_EQ(w.runs.size(), 1u);
  EXPECT_EQ(w.runs[0].first, SimTime::millis(10).ns());
  EXPECT_EQ(w.runs[0].second, 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.events_executed(), 3u);  // the virtual event passed
  EXPECT_EQ(sched.events_dispatched(), 2u);
}

}  // namespace
}  // namespace dmp
