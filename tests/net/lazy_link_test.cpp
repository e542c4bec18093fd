// Lazy vs eager links, link by link.  The same randomized workload runs
// through a small network of four lazy links in one Scheduler and through
// the same network of eager links in another, alongside competing posts,
// timers, disarms and feedback sends.  Times sit on the
// 120 us lattice (1500 B at 100 Mb/s; 2.4 ms = 20 lattice steps at 5 Mb/s)
// with 10 ms and 40 ms propagation delays, so arrivals land exactly on
// departures and deliveries tie with timers: the tie rule has to place
// every virtual claim where the eager tx-done's claim would be.  Every
// callback (time + id), every delivery, events_executed / _scheduled /
// _cancelled, total_delivered, queue_length and utilization must match at
// every checkpoint, including
// the final horizon with packets still queued.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "net/link.hpp"
#include "sim/scheduler.hpp"
#include "util/sim_time.hpp"

namespace dmp {
namespace {

constexpr std::int64_t kLatticeNs = 120'000;  // 1500 B at 100 Mb/s

// One scripted operation, replayed identically into both arms.
struct Op {
  std::int64_t at_ns;
  int kind;  // 0 send into the chain, 1 post, 2 timer, 3 cancel a timer,
             // 4 send into mid or twin
  int id;
  std::uint32_t bytes;
};

struct Checkpoint {
  std::uint64_t executed;
  std::uint64_t scheduled;
  std::uint64_t cancelled;
  std::vector<std::uint64_t> delivered;
  std::vector<std::size_t> queued;
  std::vector<double> utilization;
};

struct Outcome {
  std::vector<std::int64_t> pop_ns;  // every callback, in order
  std::vector<int> pop_id;
  std::vector<Checkpoint> checkpoints;
  bool lazy = false;
};

std::vector<Op> make_script(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::vector<Op> ops;
  for (int i = 0; i < n; ++i) {
    Op op;
    // Bursty lattice arrivals: most ops sit on a handful of lattice steps.
    op.at_ns = static_cast<std::int64_t>(rng() % 6000) * kLatticeNs;
    const int r = static_cast<int>(rng() % 100);
    op.kind = r < 45 ? 0 : r < 60 ? 1 : r < 75 ? 2 : r < 85 ? 3 : 4;
    op.id = i;
    op.bytes = rng() % 8 == 0 ? 40 : 1500;
    ops.push_back(op);
  }
  return ops;
}

// A delay that lands a follow-up on the same nanosecond as deliveries:
// the links' propagation delays (and their sum) plus lattice steps.
SimTime echo_delay(int id) {
  static constexpr std::int64_t kProps[] = {10'000'000, 40'000'000,
                                            50'000'000, 0};
  const auto h = static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ULL;
  return SimTime::nanos(kProps[(h >> 20) % 4] +
                        static_cast<std::int64_t>((h >> 40) % 48) *
                            kLatticeNs);
}

Outcome run_arm(const std::vector<Op>& script, bool lazy,
                const std::vector<SimTime>& checkpoints) {
  Scheduler sched;
  Outcome out;
  const auto log = [&out, &sched](int id) {
    out.pop_ns.push_back(sched.now().ns());
    out.pop_id.push_back(id);
  };
  // head (5 Mb/s, 10 ms) -> mid (100 Mb/s, 40 ms) -> tail -> sink, and
  // twin (a copy of mid) -> tail, all unbounded.  Twin and mid deliver
  // into tail on the same nanoseconds; tail's 120 us propagation delay
  // equals its 1500 B tx time, so a delivery can tie with the next
  // packet's tx-done.
  std::vector<std::unique_ptr<Link>> chain;
  for (const LinkConfig& config :
       {LinkConfig{5e6, SimTime::millis(10), 0},
        LinkConfig{100e6, SimTime::millis(40), 0},
        LinkConfig{100e6, SimTime::millis(40), 0},
        LinkConfig{100e6, SimTime::micros(120), 0}}) {
    chain.push_back(std::make_unique<Link>(sched, config));
    chain.back()->set_lazy_allowed(lazy);
  }
  Link& head = *chain[0];
  Link& mid = *chain[1];
  Link& twin = *chain[2];
  Link& tail = *chain[3];
  head.set_receiver(&mid);
  mid.set_receiver(&tail);
  twin.set_receiver(&tail);
  int feedback_id = 1'000'000;
  tail.set_receiver([&](const Packet& p) {
    log(static_cast<int>(p.seq));
    // Every fourth delivery feeds a packet back into the head from inside
    // the delivery pop, on the lattice.
    if (p.seq % 4 == 0) {
      Packet back = p;
      back.seq = feedback_id++;
      head.send(back);
    }
  });
  // Sends claimed mid-run, landing exactly on departures whose keys were
  // claimed earlier: the idle-or-busy question at d_last.
  const auto echo_send = [&](int id) {
    Packet p;
    p.flow = 2;
    p.seq = 7'000'000 + id;
    p.size_bytes = 1500;
    chain[static_cast<std::size_t>(id) % 3]->send(p);
  };

  // One-shot timers: a callback each, one registration per shot.
  struct Shot {
    std::function<void()> fn;
    static void fire(void* ctx) { static_cast<Shot*>(ctx)->fn(); }
  };
  std::deque<Shot> shots;
  std::vector<std::uint32_t> timers;
  const auto timer_at = [&](SimTime when, std::function<void()> fn) {
    shots.push_back(Shot{std::move(fn)});
    timers.push_back(sched.register_timer(&Shot::fire, &shots.back()));
    sched.arm(timers.back(), when);
  };
  for (const Op& op : script) {
    const SimTime at = SimTime::nanos(op.at_ns);
    switch (op.kind) {
      case 0:
      case 4: {
        Packet p;
        p.flow = 1;
        p.seq = op.id;
        p.size_bytes = op.bytes;
        Link* target = op.kind == 0 ? &head : op.id % 2 == 0 ? &twin : &mid;
        sched.post_at(at, [target, p, &log, id = op.id] {
          log(-1 - id);
          target->send(p);
        });
        break;
      }
      case 1:
        // A post that claims a follow-up key mid-run, after the tx-dones
        // whose deliveries it may tie with.
        sched.post_at(at, [&sched, &log, &echo_send, id = op.id] {
          log(2'000'000 + id);
          sched.post_after(echo_delay(id), [&log, &echo_send, id] {
            log(5'000'000 + id);
            echo_send(id);
          });
        });
        break;
      case 2:
        timer_at(at, [&sched, &timer_at, &log, id = op.id] {
          log(3'000'000 + id);
          timer_at(sched.now() + echo_delay(id + 1),
                   [&log, id] { log(6'000'000 + id); });
        });
        break;
      default:
        // Cancel an earlier timer from inside the run, at a lattice time.
        sched.post_at(at, [&sched, &timers, &log, id = op.id] {
          log(4'000'000 + id);
          if (!timers.empty()) {
            sched.disarm(timers[static_cast<std::size_t>(id) % timers.size()]);
          }
        });
        break;
    }
  }

  for (const SimTime horizon : checkpoints) {
    sched.run_until(horizon);
    Checkpoint cp;
    cp.executed = sched.events_executed();
    cp.scheduled = sched.events_scheduled();
    cp.cancelled = sched.events_cancelled();
    for (const auto& link : chain) {
      cp.delivered.push_back(link->total_delivered());
      cp.queued.push_back(link->queue_length());
      cp.utilization.push_back(link->utilization(horizon));
    }
    out.checkpoints.push_back(cp);
  }
  out.lazy = true;
  for (const auto& link : chain) out.lazy = out.lazy && link->lazy();
  return out;
}

void expect_same(const Outcome& eager, const Outcome& lazy) {
  ASSERT_EQ(eager.pop_ns.size(), lazy.pop_ns.size());
  for (std::size_t i = 0; i < eager.pop_ns.size(); ++i) {
    ASSERT_EQ(eager.pop_ns[i], lazy.pop_ns[i]) << "pop " << i;
    ASSERT_EQ(eager.pop_id[i], lazy.pop_id[i]) << "pop " << i;
  }
  ASSERT_EQ(eager.checkpoints.size(), lazy.checkpoints.size());
  for (std::size_t c = 0; c < eager.checkpoints.size(); ++c) {
    const Checkpoint& e = eager.checkpoints[c];
    const Checkpoint& l = lazy.checkpoints[c];
    EXPECT_EQ(e.executed, l.executed) << "checkpoint " << c;
    EXPECT_EQ(e.scheduled, l.scheduled) << "checkpoint " << c;
    EXPECT_EQ(e.cancelled, l.cancelled) << "checkpoint " << c;
    EXPECT_EQ(e.delivered, l.delivered) << "checkpoint " << c;
    EXPECT_EQ(e.queued, l.queued) << "checkpoint " << c;
    EXPECT_EQ(e.utilization, l.utilization) << "checkpoint " << c;
  }
}

// Same-nanosecond pops in a run's callback log.
std::size_t ties(const Outcome& out) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < out.pop_ns.size(); ++i) {
    if (out.pop_ns[i] == out.pop_ns[i - 1]) ++n;
  }
  return n;
}

TEST(LazyLink, ChainMatchesEagerPopForPop) {
  // Checkpoints on and off the lattice; the last one leaves the 5 Mb/s
  // head link with a standing queue.
  const std::vector<SimTime> checkpoints{
      SimTime::millis(50), SimTime::nanos(100 * kLatticeNs + 7),
      SimTime::millis(240), SimTime::nanos(3000 * kLatticeNs),
      SimTime::millis(600)};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::vector<Op> script = make_script(seed, 3000);
    const Outcome eager = run_arm(script, false, checkpoints);
    const Outcome lazy = run_arm(script, true, checkpoints);
    ASSERT_FALSE(eager.lazy);
    ASSERT_TRUE(lazy.lazy) << "seed " << seed;
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    expect_same(eager, lazy);
    EXPECT_GT(ties(eager), 100u) << "the workload must force exact ties";
    EXPECT_GT(eager.checkpoints.back().queued[0], 0u)
        << "the horizon must leave packets queued";
  }
}

// Two hand-built ties the random workload reaches only by chance.  Each
// returns the callback order at 12 ms / 3 ms, eager or lazy.
std::vector<int> idle_at_exact_departure(bool lazy) {
  // 1500 B at 12 Mb/s = 1 ms tx, 10 ms prop.  p1 departs at 1 ms.  X and
  // then Y pop at 1 ms after that tx-done, so Y's send finds the link
  // idle and its tx-done key is a claim made in Y — after Z's, which X
  // posted for 2 ms.  Z therefore pops before p2's tx-done, and R (posted
  // by Z for p2's delivery time) is delivered first.
  Scheduler sched;
  std::vector<int> order;
  Link link(sched, LinkConfig{12e6, SimTime::millis(10), 0});
  link.set_lazy_allowed(lazy);
  link.set_receiver(
      [&](const Packet& p) { order.push_back(static_cast<int>(p.seq)); });
  Packet p;
  p.size_bytes = 1500;
  p.seq = 1;
  link.send(p);
  sched.post_at(SimTime::millis(1), [&] {  // X
    sched.post_at(SimTime::millis(2), [&] {  // Z
      sched.post_at(SimTime::millis(12), [&] { order.push_back(-1); });
    });
    sched.post_at(SimTime::millis(1), [&] {  // Y
      Packet p2 = p;
      p2.seq = 2;
      link.send(p2);
    });
  });
  sched.run();
  EXPECT_EQ(link.lazy(), lazy);
  return order;
}

std::vector<int> delivery_ties_successor(bool lazy) {
  // tx = prop = 1 ms: p1's delivery and p2's tx-done share 2 ms.  The
  // eager tx-done at 1 ms claims the delivery key before the successor's,
  // so the delivery pops first, and the entry it posts for p2's delivery
  // time (3 ms) precedes that delivery.
  Scheduler sched;
  std::vector<int> order;
  Link link(sched, LinkConfig{12e6, SimTime::millis(1), 0});
  link.set_lazy_allowed(lazy);
  link.set_receiver([&](const Packet& p) {
    order.push_back(static_cast<int>(p.seq));
    if (p.seq == 1) {
      sched.post_at(SimTime::millis(3), [&] { order.push_back(-1); });
    }
  });
  Packet p;
  p.size_bytes = 1500;
  for (int seq : {1, 2}) {
    p.seq = seq;
    link.send(p);
  }
  sched.run();
  EXPECT_EQ(link.lazy(), lazy);
  return order;
}

TEST(LazyLink, HandBuiltTiesMatchEager) {
  const std::vector<int> idle{1, -1, 2};
  EXPECT_EQ(idle_at_exact_departure(false), idle);
  EXPECT_EQ(idle_at_exact_departure(true), idle);
  const std::vector<int> successor{1, -1, 2};
  EXPECT_EQ(delivery_ties_successor(false), successor);
  EXPECT_EQ(delivery_ties_successor(true), successor);
}

TEST(LazyLink, GoesLazyOnlyWhenAllowedUnboundedAndDroptail) {
  Scheduler sched;
  Link lazy(sched, LinkConfig{1e6, SimTime::millis(1), 0});
  Link bounded(sched, LinkConfig{1e6, SimTime::millis(1), 5});
  Link default_link(sched, LinkConfig{1e6, SimTime::millis(1), 0});
  Link faulted(sched, LinkConfig{1e6, SimTime::millis(1), 0});
  for (Link* link : {&lazy, &bounded, &default_link, &faulted}) {
    link->set_receiver([](const Packet&) {});
  }
  lazy.set_lazy_allowed(true);
  bounded.set_lazy_allowed(true);
  faulted.set_lazy_allowed(true);
  faulted.drop_next(0);  // a fault hook before the first send pins eager
  Packet p;
  p.size_bytes = 1500;
  for (Link* link : {&lazy, &bounded, &default_link, &faulted}) {
    link->send(p);
  }
  EXPECT_TRUE(lazy.lazy());
  EXPECT_FALSE(bounded.lazy());
  EXPECT_FALSE(default_link.lazy());
  EXPECT_FALSE(faulted.lazy());
  // A lazy link has no tx-done to freeze, drop against or rescale.
  EXPECT_THROW(lazy.set_down(true), std::logic_error);
  EXPECT_THROW(lazy.rescale(0.5, 1.0), std::logic_error);
  EXPECT_THROW(lazy.set_lazy_allowed(false), std::logic_error);
  sched.run();
  EXPECT_EQ(lazy.total_delivered(), 1u);
  EXPECT_EQ(sched.events_executed(), 8u);  // 4 tx-dones + 4 deliveries
}

TEST(LazyLink, ExactCountersKeepLinksEager) {
  Scheduler sched;
  sched.require_exact_counters();
  Link link(sched, LinkConfig{1e6, SimTime::millis(1), 0});
  link.set_receiver([](const Packet&) {});
  link.set_lazy_allowed(true);
  Packet p;
  p.size_bytes = 1500;
  link.send(p);
  EXPECT_FALSE(link.lazy());
}

}  // namespace
}  // namespace dmp
