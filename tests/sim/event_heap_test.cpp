// Differential suite for the DES event heap.
//
// Two layers:
//   * raw EventHeap vs std::priority_queue over the same (when, seq) keys —
//     pop order must be bit-identical under randomized workloads (near-
//     clock pushes, same-nanosecond ties, far-future sentinels, pushes
//     below the minimum);
//   * the full Scheduler vs the one-entry-per-event std::priority_queue
//     reference (heap_reference.hpp) driven by one mixed op stream (timer
//     arm / disarm / post / port / claim+arm_key) — execution order,
//     clocks and the executed / cancelled / pending counters must match
//     exactly (the high-water mark differs: a FIFO of claimed keys queues
//     only its head).
#include "sim/event_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <vector>

#include "heap_reference.hpp"
#include "sim/scheduler.hpp"
#include "util/sim_time.hpp"

namespace dmp {
namespace {

struct Key {
  SimTime when;
  std::uint64_t seq;
};

struct KeyLess {
  bool operator()(const Key& a, const Key& b) const {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
};

struct KeyGreater {
  bool operator()(const Key& a, const Key& b) const {
    return KeyLess{}(b, a);
  }
};

using Heap = EventHeap<Key, KeyLess>;
// Reference model: std::priority_queue over the same keys.
using RefQueue = std::priority_queue<Key, std::vector<Key>, KeyGreater>;

void expect_same_pop(Heap& heap, RefQueue& ref) {
  ASSERT_EQ(heap.size(), ref.size());
  ASSERT_FALSE(heap.empty());
  const Key want = ref.top();
  ref.pop();
  EXPECT_EQ(heap.min().when.ns(), want.when.ns());
  EXPECT_EQ(heap.min().seq, want.seq);
  const Key got = heap.pop_min();
  ASSERT_EQ(got.when.ns(), want.when.ns());
  ASSERT_EQ(got.seq, want.seq);
}

void drain_same(Heap& heap, RefQueue& ref) {
  while (!ref.empty()) expect_same_pop(heap, ref);
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
}

TEST(EventHeap, RandomizedDifferentialAgainstPriorityQueue) {
  std::mt19937_64 rng(20070811);
  Heap heap(KeyLess{});
  RefQueue ref;
  std::uint64_t seq = 0;
  std::int64_t clock_ns = 0;  // keys mostly advance with this
  // 100k mixed ops: 55% push near the clock, 10% push a same-time tie,
  // 5% push a far-future sentinel, 30% pop.
  for (int op = 0; op < 100000; ++op) {
    const int kind = static_cast<int>(rng() % 100);
    if (kind < 55 || ref.empty()) {
      clock_ns += static_cast<std::int64_t>(rng() % 5000);
      const Key k{SimTime::nanos(clock_ns), seq++};
      heap.push(k);
      ref.push(k);
    } else if (kind < 65) {
      // Exact tie with the previous key: FIFO order decided by seq alone.
      const Key k{SimTime::nanos(clock_ns), seq++};
      heap.push(k);
      ref.push(k);
    } else if (kind < 70) {
      // Far-future sentinel (an idle timer).
      const Key k{SimTime::nanos(clock_ns + 10'000'000'000), seq++};
      heap.push(k);
      ref.push(k);
    } else {
      expect_same_pop(heap, ref);
    }
  }
  drain_same(heap, ref);
}

TEST(EventHeap, SameTimeBurstPushedInReverseSeqOrder) {
  // Every push undercuts the one before it; pops must still come out in
  // ascending seq.
  Heap heap(KeyLess{});
  RefQueue ref;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const Key k{SimTime::millis(5), 1000 - i};
    heap.push(k);
    ref.push(k);
  }
  drain_same(heap, ref);
}

TEST(EventHeap, PushBelowTheMinimum) {
  // Pop part of a standing queue, then push keys below every pending
  // entry: each sifts to the root, and the order stays exact.
  std::mt19937_64 rng(42);
  Heap heap(KeyLess{});
  RefQueue ref;
  std::uint64_t seq = 0;
  for (int i = 0; i < 2000; ++i) {
    const Key k{SimTime::nanos(1'000'000 + i * 777), seq++};
    heap.push(k);
    ref.push(k);
  }
  for (int i = 0; i < 1500; ++i) expect_same_pop(heap, ref);
  for (int i = 0; i < 200; ++i) {
    // Below the first batch entirely (the scheduler forbids this, the raw
    // structure must not).
    const Key k{SimTime::nanos(static_cast<std::int64_t>(rng() % 1000)),
                seq++};
    heap.push(k);
    ref.push(k);
  }
  drain_same(heap, ref);
}

// ---------------------------------------------------------------------------
// Scheduler-level differential: one op stream through the Scheduler and
// through a reference scheduler built on std::priority_queue with one
// entry per event (no ports, no key FIFOs).

struct SchedLog {
  std::vector<std::int64_t> fired_at_ns;
  std::vector<int> fired_id;
};

// Emulates the link-style FIFO of claimed keys: (when, seq) keys wait in
// order, only the head is queued, the port pops and queues the next.
struct KeyFifo {
  struct Item {
    SimTime when;
    std::uint64_t seq;
    int id;
  };
  Scheduler* sched = nullptr;
  SchedLog* log = nullptr;
  std::vector<Item> q;
  std::size_t head = 0;
  std::uint32_t port_id = 0;

  static void fire(void* ctx) {
    auto* self = static_cast<KeyFifo*>(ctx);
    const Item item = self->q[self->head++];
    if (self->head < self->q.size()) {
      const Item& next = self->q[self->head];
      self->sched->arm_key(next.when, next.seq, self->port_id);
    } else {
      self->q.clear();
      self->head = 0;
    }
    self->log->fired_at_ns.push_back(self->sched->now().ns());
    self->log->fired_id.push_back(item.id);
  }

  void push(SimTime when, int id) {
    const std::uint64_t seq = sched->claim_seq();
    const bool was_empty = head == q.size();
    q.push_back(Item{when, seq, id});
    if (was_empty) sched->arm_key(when, seq, port_id);
  }
};

// The Scheduler side of the op stream: schedule / post / port / FIFO of
// claimed keys, each as the hot paths use them.
class SchedulerArm {
 public:
  SchedulerArm() {
    port_ = sched_.register_port(
        [](void* ctx) {
          auto* self = static_cast<SchedulerArm*>(ctx);
          self->log.fired_at_ns.push_back(self->sched_.now().ns());
          self->log.fired_id.push_back(-1);
        },
        this);
    fifo_.sched = &sched_;
    fifo_.log = &log;
    fifo_.port_id = sched_.register_port(&KeyFifo::fire, &fifo_);
  }
  SimTime now() const { return sched_.now(); }
  std::function<void()> schedule(SimTime when, int id) {
    shots_.push_back(Shot{this, id});
    const std::uint32_t timer =
        sched_.register_timer(&Shot::fire, &shots_.back());
    sched_.arm(timer, when);
    return [this, timer] { sched_.disarm(timer); };
  }
  void post(SimTime when, int id) { sched_.post_at(when, fire(id)); }
  void port(SimTime when) { sched_.post_port_at(when, port_); }
  void deferred(SimTime when, int id) { fifo_.push(when, id); }
  void run_until(SimTime h) { sched_.run_until(h); }
  void finish() {
    sched_.run();
    log.fired_at_ns.push_back(
        static_cast<std::int64_t>(sched_.events_executed()));
    log.fired_at_ns.push_back(
        static_cast<std::int64_t>(sched_.events_cancelled()));
    log.fired_at_ns.push_back(
        static_cast<std::int64_t>(sched_.pending_events()));
  }
  SchedLog log;

 private:
  std::function<void()> fire(int id) {
    return [this, id] {
      log.fired_at_ns.push_back(sched_.now().ns());
      log.fired_id.push_back(id);
    };
  }
  // A one-shot timer: its callback logs its id.
  struct Shot {
    SchedulerArm* arm;
    int id;
    static void fire(void* ctx) {
      const auto* shot = static_cast<Shot*>(ctx);
      shot->arm->log.fired_at_ns.push_back(shot->arm->sched_.now().ns());
      shot->arm->log.fired_id.push_back(shot->id);
    }
  };
  Scheduler sched_;
  std::uint32_t port_ = 0;
  KeyFifo fifo_;
  std::deque<Shot> shots_;
};

// The reference side: every op is one heap entry.
class ReferenceArm {
 public:
  SimTime now() const { return ref_.now(); }
  std::function<void()> schedule(SimTime when, int id) {
    auto flag = ref_.schedule(when, fire(id));
    return [flag] { *flag = true; };
  }
  void post(SimTime when, int id) { ref_.post(when, fire(id)); }
  void port(SimTime when) { ref_.post(when, fire(-1)); }
  void deferred(SimTime when, int id) { ref_.post(when, fire(id)); }
  void run_until(SimTime h) { ref_.run_until(h); }
  void finish() {
    ref_.run_until(SimTime::max());
    log.fired_at_ns.push_back(static_cast<std::int64_t>(ref_.executed()));
    log.fired_at_ns.push_back(static_cast<std::int64_t>(ref_.cancelled()));
    log.fired_at_ns.push_back(static_cast<std::int64_t>(ref_.pending()));
  }
  SchedLog log;

 private:
  std::function<void()> fire(int id) {
    return [this, id] {
      log.fired_at_ns.push_back(ref_.now().ns());
      log.fired_id.push_back(id);
    };
  }
  HeapReference ref_;
};

template <typename Arm>
SchedLog drive_mixed_workload() {
  Arm arm;
  std::mt19937_64 rng(777);
  std::vector<std::function<void()>> cancels;
  int next_id = 0;
  SimTime fifo_tail = SimTime::zero();  // keys must be nondecreasing

  for (int round = 0; round < 200; ++round) {
    for (int op = 0; op < 50; ++op) {
      const int kind = static_cast<int>(rng() % 100);
      const SimTime when =
          arm.now() + SimTime::nanos(static_cast<std::int64_t>(
                          rng() % 2'000'000));
      if (kind < 35) {
        cancels.push_back(arm.schedule(when, next_id++));
      } else if (kind < 55) {
        arm.post(when, next_id++);
      } else if (kind < 70) {
        arm.port(when);
      } else if (kind < 85) {
        if (when > fifo_tail) fifo_tail = when;
        arm.deferred(fifo_tail, next_id++);
      } else if (!cancels.empty()) {
        const std::size_t pick = rng() % cancels.size();
        cancels[pick]();
        cancels.erase(cancels.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    arm.run_until(arm.now() + SimTime::nanos(static_cast<std::int64_t>(
                                  rng() % 3'000'000)));
  }
  // Counters ride along in the log tail for a single comparison.
  arm.finish();
  return arm.log;
}

TEST(SchedulerBackendDifferential, MixedWorkloadIsBitIdentical) {
  const SchedLog ref = drive_mixed_workload<ReferenceArm>();
  const SchedLog sched = drive_mixed_workload<SchedulerArm>();
  ASSERT_GT(ref.fired_id.size(), 1000u);
  ASSERT_EQ(ref.fired_id.size(), sched.fired_id.size());
  ASSERT_EQ(ref.fired_at_ns.size(), sched.fired_at_ns.size());
  for (std::size_t i = 0; i < ref.fired_id.size(); ++i) {
    ASSERT_EQ(ref.fired_id[i], sched.fired_id[i]) << "index " << i;
  }
  for (std::size_t i = 0; i < ref.fired_at_ns.size(); ++i) {
    ASSERT_EQ(ref.fired_at_ns[i], sched.fired_at_ns[i]) << "index " << i;
  }
}

}  // namespace
}  // namespace dmp
