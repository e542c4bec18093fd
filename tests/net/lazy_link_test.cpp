// Lazy vs eager links, link by link.  The same randomized workload runs
// through a small network of four lazy links in one Scheduler and through
// the same network of eager links in another, alongside competing posts,
// timers, disarms and feedback sends.  Times sit on the
// 120 us lattice (1500 B at 100 Mb/s; 2.4 ms = 20 lattice steps at 5 Mb/s)
// with 10 ms and 40 ms propagation delays, so arrivals land exactly on
// departures and deliveries tie with timers: the tie rule has to place
// every virtual claim where the eager tx-done's claim would be.  The
// network also runs with finite buffers whose bursts overflow (drops
// decided at arrival) and with fused hops (deliveries into a link fed by
// nothing else made virtual).  Every callback (time + id), every delivery,
// events_executed / _scheduled / _cancelled, and per link the arrivals,
// per-flow arrivals and drops, overlimit drops, total_delivered,
// queue_length and utilization must match at every checkpoint, including
// the final horizon with packets still queued.  Further down the same
// comparison covers bound sinks (a lazy link records what the eager one
// does), jittered Reno senders feeding lazy entry links (fused send hops),
// identical paths in lockstep, a link under declared faults (down / up
// windows, burst losses, rescales) that runs lazy up to its next fault,
// and several upstream links merged by lookahead into a finite buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/background.hpp"
#include "apps/ftp_source.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"
#include "obs/hub.hpp"
#include "sim/scheduler.hpp"
#include "tcp/connection.hpp"
#include "tcp/reno_sender.hpp"
#include "tcp/sink.hpp"
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
  std::uint64_t dispatched;
  std::vector<std::uint64_t> arrivals;
  std::vector<std::uint64_t> drops;
  std::vector<std::uint64_t> fault_drops;
  std::vector<std::uint64_t> overlimit;
  // Per link, flows 1 (scripted) and 2 (echo sends).
  std::vector<std::uint64_t> flow_arrivals;
  std::vector<std::uint64_t> flow_drops;
  std::vector<std::uint64_t> delivered;
  std::vector<std::size_t> queued;
  std::vector<double> utilization;
};

struct Outcome {
  std::vector<std::int64_t> pop_ns;  // every callback, in order
  std::vector<int> pop_id;
  std::vector<Checkpoint> checkpoints;
  bool lazy = false;
  bool fused = false;  // the head -> mid hop delivers virtually
};

// The scheduler's counters and, per link, its counters for `flows` (every
// flow the link carries), as of `horizon`.  Each link conserves packets:
// what arrived and was not dropped is delivered, queued, or the one packet
// on the wire; its drops are its queue discipline's, and its flows' counts
// sum to its totals.
Checkpoint snapshot(const Scheduler& sched, const std::vector<Link*>& links,
                    const std::vector<FlowId>& flows, SimTime horizon) {
  Checkpoint cp;
  cp.executed = sched.events_executed();
  cp.scheduled = sched.events_scheduled();
  cp.cancelled = sched.events_cancelled();
  cp.dispatched = sched.events_dispatched();
  for (const Link* link : links) {
    cp.arrivals.push_back(link->total_arrivals());
    cp.drops.push_back(link->total_drops());
    cp.fault_drops.push_back(link->fault_drops());
    cp.overlimit.push_back(link->qdisc_counters().overlimit_drops);
    std::uint64_t flow_arrivals = 0;
    std::uint64_t flow_drops = 0;
    for (FlowId flow : flows) {
      cp.flow_arrivals.push_back(link->flow_counters(flow).arrivals);
      cp.flow_drops.push_back(link->flow_counters(flow).drops);
      flow_arrivals += cp.flow_arrivals.back();
      flow_drops += cp.flow_drops.back();
    }
    cp.delivered.push_back(link->total_delivered());
    cp.queued.push_back(link->queue_length());
    cp.utilization.push_back(link->utilization(horizon));

    const auto on_wire = static_cast<std::int64_t>(
        cp.arrivals.back() - cp.drops.back() - cp.fault_drops.back() -
        cp.delivered.back() - cp.queued.back());
    EXPECT_GE(on_wire, 0) << "at " << horizon.ns() << " ns";
    EXPECT_LE(on_wire, 1) << "at " << horizon.ns() << " ns";
    EXPECT_EQ(cp.drops.back(), cp.overlimit.back() +
                                   link->qdisc_counters().early_drops)
        << "at " << horizon.ns() << " ns";
    EXPECT_EQ(flow_arrivals, cp.arrivals.back())
        << "at " << horizon.ns() << " ns";
    EXPECT_EQ(flow_drops, cp.drops.back()) << "at " << horizon.ns() << " ns";
  }
  return cp;
}

// The network's variants: a finite buffer on head, mid and twin (0 =
// unbounded), and which hops fuse.  `fuse_mid` declares mid upstream-only
// and unbounded (head -> mid fuses, like a bottleneck into its exit; the
// direct sends meant for mid go to twin);
// `fuse_tail` declares tail upstream-only and points twin at the sink, so
// mid -> tail fuses as well (a three-link fused chain).
struct Shape {
  std::size_t buffer = 0;
  bool fuse_mid = false;
  bool fuse_tail = false;
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

// With a hub, every link binds it: spans at hops 0-3, metrics, events and
// channels under its name.
Outcome run_arm(const std::vector<Op>& script, bool lazy,
                const std::vector<SimTime>& checkpoints,
                const Shape& shape = {}, obs::Hub* hub = nullptr) {
  Scheduler sched;
  if (!lazy) sched.keep_links_eager();
  Outcome out;
  const auto log = [&out, &sched](int id) {
    out.pop_ns.push_back(sched.now().ns());
    out.pop_id.push_back(id);
  };
  // head (5 Mb/s, 10 ms) -> mid (100 Mb/s, 40 ms) -> tail -> sink, and
  // twin (a copy of mid) -> tail; tail is unbounded.  Twin and mid deliver
  // into tail on the same nanoseconds; tail's 120 us propagation delay
  // equals its 1500 B tx time, so a delivery can tie with the next
  // packet's tx-done.
  std::vector<std::unique_ptr<Link>> chain;
  for (const LinkConfig& config :
       {LinkConfig{5e6, SimTime::millis(10), shape.buffer},
        LinkConfig{100e6, SimTime::millis(40),
                   shape.fuse_mid ? 0 : shape.buffer},
        LinkConfig{100e6, SimTime::millis(40), shape.buffer},
        LinkConfig{100e6, SimTime::micros(120), 0}}) {
    chain.push_back(std::make_unique<Link>(sched, config));
  }
  Link& head = *chain[0];
  Link& mid = *chain[1];
  Link& twin = *chain[2];
  Link& tail = *chain[3];
  if (hub != nullptr) {
    const char* names[] = {"head", "mid", "twin", "tail"};
    for (std::size_t i = 0; i < chain.size(); ++i) {
      chain[i]->bind(*hub, names[i], static_cast<std::int32_t>(i));
    }
  }
  // Mid's own arrivals: direct sends unless mid is fed by head alone.
  Link& mid_entry = shape.fuse_mid ? twin : mid;
  if (shape.fuse_mid) mid.set_upstream_only();
  if (shape.fuse_tail) tail.set_upstream_only();
  head.set_receiver(&mid);
  mid.set_receiver(&tail);
  int feedback_id = 1'000'000;
  const auto sink = [&](const Packet& p) {
    log(static_cast<int>(p.seq));
    // Every fourth delivery feeds a packet back into the head from inside
    // the delivery pop, on the lattice.
    if (p.seq % 4 == 0) {
      Packet back = p;
      back.seq = feedback_id++;
      head.send(back);
    }
  };
  tail.set_receiver(sink);
  if (shape.fuse_tail) {
    twin.set_receiver(sink);
  } else {
    twin.set_receiver(&tail);
  }
  // Sends claimed mid-run, landing exactly on departures whose keys were
  // claimed earlier: the idle-or-busy question at d_last.
  const auto echo_send = [&](int id) {
    Packet p;
    p.flow = 2;
    p.seq = 7'000'000 + id;
    p.app_tag = p.seq;
    p.size_bytes = 1500;
    Link* targets[] = {&head, &mid_entry, &twin};
    targets[static_cast<std::size_t>(id) % 3]->send(p);
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
        p.app_tag = op.id;
        p.size_bytes = op.bytes;
        Link* target =
            op.kind == 0 ? &head : op.id % 2 == 0 ? &twin : &mid_entry;
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
    out.checkpoints.push_back(
        snapshot(sched, {&head, &mid, &twin, &tail}, {1, 2}, horizon));
  }
  out.lazy = true;
  for (const auto& link : chain) out.lazy = out.lazy && link->lazy();
  if (hub != nullptr && hub->metrics()) hub->metrics()->freeze_samplers();
  try {
    head.set_receiver(&mid);  // rewiring a fused hop throws
  } catch (const std::logic_error&) {
    out.fused = true;
  }
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
    EXPECT_EQ(e.dispatched, e.executed) << "checkpoint " << c;
    EXPECT_LT(l.dispatched, l.executed) << "checkpoint " << c;
    EXPECT_EQ(e.arrivals, l.arrivals) << "checkpoint " << c;
    EXPECT_EQ(e.drops, l.drops) << "checkpoint " << c;
    EXPECT_EQ(e.fault_drops, l.fault_drops) << "checkpoint " << c;
    EXPECT_EQ(e.overlimit, l.overlimit) << "checkpoint " << c;
    EXPECT_EQ(e.flow_arrivals, l.flow_arrivals) << "checkpoint " << c;
    EXPECT_EQ(e.flow_drops, l.flow_drops) << "checkpoint " << c;
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

// Checkpoints on and off the lattice; the last one leaves the 5 Mb/s head
// link with a standing queue.
const std::vector<SimTime>& lattice_checkpoints() {
  static const std::vector<SimTime> checkpoints{
      SimTime::millis(50), SimTime::nanos(100 * kLatticeNs + 7),
      SimTime::millis(240), SimTime::nanos(3000 * kLatticeNs),
      SimTime::millis(600)};
  return checkpoints;
}

// Both arms of `shape` over scripts seeded first..last, compared.
void expect_shape_matches(const Shape& shape, std::uint64_t first,
                          std::uint64_t last) {
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    SCOPED_TRACE(testing::Message()
                 << "seed " << seed << " buffer " << shape.buffer
                 << " fuse " << shape.fuse_mid << shape.fuse_tail);
    const std::vector<Op> script = make_script(seed, 3000);
    const Outcome eager = run_arm(script, false, lattice_checkpoints(), shape);
    const Outcome lazy = run_arm(script, true, lattice_checkpoints(), shape);
    ASSERT_FALSE(eager.lazy);
    ASSERT_TRUE(lazy.lazy);
    EXPECT_FALSE(eager.fused);
    EXPECT_EQ(lazy.fused, shape.fuse_mid);
    expect_same(eager, lazy);
    EXPECT_GT(ties(eager), 100u) << "the workload must force exact ties";
    if (shape.buffer != 1) {  // a one-packet buffer is often empty by then
      EXPECT_GT(eager.checkpoints.back().queued[0], 0u)
          << "the horizon must leave packets queued";
    }
    if (shape.buffer != 0) {
      // Bursts overflow the 5 Mb/s head.
      EXPECT_GT(eager.checkpoints.back().overlimit[0], 0u);
    }
  }
}

TEST(LazyLink, ChainMatchesEagerPopForPop) {
  expect_shape_matches(Shape{}, 1, 12);
}

TEST(LazyLink, FiniteBuffersDropAtArrivalLikeEager) {
  for (std::size_t buffer : {1u, 3u}) {
    expect_shape_matches(Shape{buffer, false, false}, 1, 8);
  }
}

TEST(LazyLink, FusedHopsMatchEagerPopForPop) {
  expect_shape_matches(Shape{0, true, false}, 1, 8);
  expect_shape_matches(Shape{3, true, false}, 9, 14);
  expect_shape_matches(Shape{0, true, true}, 15, 20);
  expect_shape_matches(Shape{1, true, true}, 21, 26);
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
  if (!lazy) sched.keep_links_eager();
  Link link(sched, LinkConfig{12e6, SimTime::millis(10), 0});
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
  if (!lazy) sched.keep_links_eager();
  Link link(sched, LinkConfig{12e6, SimTime::millis(1), 0});
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

std::vector<int> zero_propagation(bool lazy) {
  // Both links have zero propagation delay, so each delivery pops at its
  // own tx-done's time.  First's 2-packet buffer drops a burst's fourth
  // packet, and the send posted for 2 ms, which pops before the 2 ms
  // tx-done claimed after it; first's deliveries feed second (fused when
  // lazy).  Ends with the event count.
  Scheduler sched;
  std::vector<int> order;
  if (!lazy) sched.keep_links_eager();
  Link first(sched, LinkConfig{12e6, SimTime::zero(), 2});
  Link second(sched, LinkConfig{12e6, SimTime::zero(), 0});
  second.set_upstream_only();
  first.set_receiver(&second);
  second.set_receiver(
      [&](const Packet& p) { order.push_back(static_cast<int>(p.seq)); });
  Packet p;
  p.size_bytes = 1500;
  for (int seq : {1, 2, 3, 4}) {
    p.seq = seq;
    first.send(p);
  }
  for (int ms : {1, 2, 4}) {
    sched.post_at(SimTime::millis(ms), [&, ms] {
      order.push_back(-ms);
      Packet q = p;
      q.seq = 10 + ms;
      first.send(q);
    });
  }
  sched.run();
  EXPECT_EQ(first.lazy(), lazy);
  EXPECT_EQ(first.total_drops(), 2u);
  order.push_back(static_cast<int>(sched.events_executed()));
  return order;
}

TEST(LazyLink, ZeroPropagationDelayMatchesEager) {
  EXPECT_EQ(zero_propagation(true), zero_propagation(false));
}

TEST(LazyLink, HandBuiltTiesMatchEager) {
  const std::vector<int> idle{1, -1, 2};
  EXPECT_EQ(idle_at_exact_departure(false), idle);
  EXPECT_EQ(idle_at_exact_departure(true), idle);
  const std::vector<int> successor{1, -1, 2};
  EXPECT_EQ(delivery_ties_successor(false), successor);
  EXPECT_EQ(delivery_ties_successor(true), successor);
}

TEST(LazyLink, GoesLazyOnlyWhenDroptail) {
  Scheduler sched;
  Link lazy(sched, LinkConfig{1e6, SimTime::millis(1), 0});
  Link bounded(sched, LinkConfig{1e6, SimTime::millis(1), 5});
  Link faulted(sched, LinkConfig{1e6, SimTime::millis(1), 0});
  LinkConfig pie_config{1e6, SimTime::millis(1), 5};
  pie_config.qdisc = QdiscSpec::parse("pie");
  Link pie(sched, pie_config);
  for (Link* link : {&lazy, &bounded, &faulted, &pie}) {
    link->set_receiver([](const Packet&) {});
  }
  // A declared burst loss is decided at arrival: stays lazy.
  faulted.declare_fault(SimTime::zero());
  faulted.drop_next(0);
  Packet p;
  p.size_bytes = 1500;
  for (Link* link : {&lazy, &bounded, &faulted, &pie}) link->send(p);
  EXPECT_TRUE(lazy.lazy());
  EXPECT_TRUE(bounded.lazy());  // a finite drop-tail buffer drops at arrival
  EXPECT_TRUE(faulted.lazy());
  EXPECT_FALSE(pie.lazy());  // AQM decides at dequeue
  // A lazy link freezes or rescales only at a declared fault.
  EXPECT_THROW(lazy.set_down(true), std::logic_error);
  EXPECT_THROW(lazy.rescale(0.5, 1.0), std::logic_error);
  sched.run();
  EXPECT_EQ(lazy.total_delivered(), 1u);
  EXPECT_EQ(sched.events_executed(), 8u);  // 4 tx-dones + 4 deliveries
  EXPECT_EQ(sched.events_dispatched(), 5u);  // the 3 lazy tx-dones are not
}

TEST(LazyLink, FusesOnlyHopsIntoLinksFedByOneUpstream) {
  Scheduler sched;
  const LinkConfig access{100e6, SimTime::millis(1), 0};
  Link a(sched, access), exit_link(sched, access);
  Link b(sched, access), merge(sched, access), c(sched, access);
  Link bounded_up(sched, access);
  Link bounded(sched, LinkConfig{100e6, SimTime::millis(1), 4});
  Link open_up(sched, access), open(sched, access), open_too(sched, access);
  exit_link.set_upstream_only();
  merge.set_upstream_only();
  bounded.set_upstream_only();
  a.set_receiver(&exit_link);  // fuses: exit_link's one upstream link
  b.set_receiver(&merge);      // two upstream links: merged by lookahead
  c.set_receiver(&merge);
  bounded_up.set_receiver(&bounded);  // a finite buffer fuses too
  open_up.set_receiver(&open);  // open takes sends: its hop stays real
  int delivered = 0;
  for (Link* link : {&exit_link, &merge, &bounded, &open, &open_too}) {
    link->set_receiver([&delivered](const Packet&) { ++delivered; });
  }
  Packet p;
  p.size_bytes = 1500;
  for (Link* link : {&a, &b, &c, &bounded_up, &open_up}) link->send(p);
  for (Link* link : {&exit_link, &merge, &bounded}) {
    EXPECT_THROW(link->send(p), std::logic_error);  // upstream-only
  }
  // A fused hop cannot be rewired, nor a fed link given a feed that is
  // already sending.
  EXPECT_THROW(a.set_receiver(&merge), std::logic_error);
  EXPECT_THROW(b.set_receiver(&exit_link), std::logic_error);
  EXPECT_THROW(open_up.set_receiver(&merge), std::logic_error);
  open_up.set_receiver(&open_too);  // unfused hops rewire freely
  sched.run();
  EXPECT_EQ(delivered, 5);
  // 10 tx-dones and 10 deliveries; real pops: 1 arrival into `open_too`
  // and the 5 final deliveries.  The 2 merge arrivals into `merge`, the
  // arrival into `bounded` and a -> exit_link are fused.
  EXPECT_EQ(sched.events_executed(), 20u);
  EXPECT_EQ(sched.events_dispatched(), 6u);
}

// --- sinks on lazy links ---

std::unique_ptr<obs::Hub> recording_hub() {
  obs::ObsConfig config;
  config.enabled = true;
  config.flight_recorder = true;
  config.output_dir = ::testing::TempDir();
  obs::TelemetryConfig telemetry;
  telemetry.enabled = true;
  telemetry.window_s = 0.005;
  return std::make_unique<obs::Hub>(config, telemetry);
}

// What a hub's sinks hold, one line per record.  Spans are sorted: the
// recorder keeps them in time order, but within a nanosecond a lazy
// link's spans come as its departures pass.
struct Records {
  std::vector<std::string> spans, windows, counters, events;
};

Records records(obs::Hub& hub, const std::vector<std::string>& links) {
  Records r;
  std::int64_t last_ns = 0;
  for (const obs::FlightEvent& e : hub.flight()->events()) {
    EXPECT_GE(e.t_ns, last_ns) << "spans out of time order";
    last_ns = e.t_ns;
    r.spans.push_back(std::to_string(e.t_ns) + " " +
                      std::string(obs::flight_event_name(e.kind)) + " " +
                      std::to_string(e.packet) + " " + std::to_string(e.path) +
                      " " + std::to_string(e.hop) + " " +
                      std::to_string(e.seq) + " " + std::to_string(e.queue));
  }
  std::sort(r.spans.begin(), r.spans.end());
  for (const std::string& link : links) {
    for (const char* what : {".delivered", ".drops", ".queue_depth"}) {
      const std::string name = link + what;
      for (const obs::Window& w : hub.channel(name)->finish()) {
        r.windows.push_back(name + " " + std::to_string(w.index) + " " +
                            std::to_string(w.count) + " " +
                            std::to_string(w.sum) + " " +
                            std::to_string(w.min) + " " +
                            std::to_string(w.max) + " " +
                            std::to_string(w.last));
      }
    }
  }
  for (const auto& [name, counter] : hub.metrics()->counters()) {
    r.counters.push_back(name + " " + std::to_string(counter.value()));
  }
  for (const obs::Event& e : hub.events()->events()) {
    std::string line = std::to_string(e.time_s) + " " + e.type;
    for (const obs::EventField& f : e.fields) line += " " + f.value;
    r.events.push_back(line);
  }
  return r;
}

// A bound lazy link stays lazy, and its spans, channel samples, counters
// and drop events are the eager link's: same times, depths and values.
TEST(LazyLink, BoundLazyLinkStaysLazyAndRecords) {
  for (const Shape& shape : {Shape{}, Shape{3, false, false},
                             Shape{3, true, false}, Shape{1, true, true}}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " buffer " << shape.buffer
                   << " fuse " << shape.fuse_mid << shape.fuse_tail);
      const std::vector<Op> script = make_script(seed, 3000);
      const auto eager_hub = recording_hub();
      const auto lazy_hub = recording_hub();
      const Outcome eager = run_arm(script, false, lattice_checkpoints(),
                                    shape, eager_hub.get());
      const Outcome lazy = run_arm(script, true, lattice_checkpoints(),
                                   shape, lazy_hub.get());
      ASSERT_TRUE(lazy.lazy);
      expect_same(eager, lazy);
      const std::vector<std::string> links{"head", "mid", "twin", "tail"};
      const Records want = records(*eager_hub, links);
      const Records got = records(*lazy_hub, links);
      EXPECT_GT(want.spans.size(), 3000u);
      EXPECT_GT(want.windows.size(), 100u);
      EXPECT_EQ(want.spans, got.spans);
      EXPECT_EQ(want.windows, got.windows);
      EXPECT_EQ(want.counters, got.counters);
      EXPECT_EQ(want.events, got.events);
      if (shape.buffer != 0) {
        EXPECT_FALSE(want.events.empty());
      }
    }
  }
}

// --- fused send hops: a sender's jitter stage into its entry link ---

// Three Reno senders with up to 12 ns of send jitter, each into a private
// entry link that sends 1500 B in 4 ns (120 us propagation), share a
// 100 Mb/s bottleneck (2 ms) with a 10-packet buffer; ACKs return on one
// reverse link (2 ms).  Jitter this close to the entry's tx time makes an
// emission land on the entry's newest tx-done again and again.  Lazy, the
// emissions are virtual arrivals on lazy entry links; eager, each pops.
// The eager arm also records when each flow's segments reached its entry
// link.
struct SendHopRun {
  Outcome out;
  std::vector<std::vector<std::int64_t>> emissions{3};
};

// With a hub, the bottleneck and each entry link bind it.
SendHopRun run_send_hops(std::uint64_t seed, bool lazy,
                         const std::vector<SimTime>& checkpoints,
                         obs::Hub* hub = nullptr) {
  Scheduler sched;
  if (!lazy) sched.keep_links_eager();
  SendHopRun run;
  Outcome& out = run.out;
  const auto log = [&out, &sched](int id) {
    out.pop_ns.push_back(sched.now().ns());
    out.pop_id.push_back(id);
  };
  Link bottleneck(sched, LinkConfig{100e6, SimTime::millis(2), 10});
  Link reverse(sched, LinkConfig{100e6, SimTime::millis(2), 0});
  std::vector<std::unique_ptr<Link>> entries;
  std::vector<std::unique_ptr<TcpSink>> sinks;
  std::vector<std::unique_ptr<RenoSender>> senders;
  TcpConfig tcp;
  tcp.send_overhead_s = 12e-9;
  tcp.jitter_seed = seed;
  tcp.max_cwnd = 24.0;
  for (FlowId flow = 0; flow < 3; ++flow) {
    entries.push_back(std::make_unique<Link>(
        sched, LinkConfig{3e12, SimTime::micros(120), 0}));
    Link* entry = entries.back().get();
    entry->set_receiver([&log, &bottleneck](const Packet& p) {
      log(40'000'000 + static_cast<int>(p.flow) * 1'000'000 +
          static_cast<int>(p.seq));
      bottleneck.send(p);
    });
    sinks.push_back(std::make_unique<TcpSink>(
        sched, flow, tcp,
        [&reverse](const Packet& ack) { reverse.send(ack); }));
    auto* emitted = &run.emissions[flow];
    senders.push_back(std::make_unique<RenoSender>(
        sched, flow, tcp,
        [&sched, entry, emitted](const Packet& p) {
          emitted->push_back(sched.now().ns());
          entry->send(p);
        },
        entry));
  }
  // Deliveries post for the next delivery's time (one bottleneck tx on).
  // After the emissions an ACK clocks out, it posts for a few ns on, where
  // they land, and from there for one entry tx and one entry propagation
  // on: which of the posts and the entry's tx-done and delivery pops
  // first is the emission's idle-or-busy question.
  bottleneck.set_receiver([&](const Packet& p) {
    const int id = static_cast<int>(p.flow) * 1'000'000 +
                   static_cast<int>(p.seq);
    log(id);
    if (p.seq % 3 == 0) {
      sched.post_after(SimTime::micros(120),
                       [&log, id] { log(20'000'000 + id); });
    }
    sinks[p.flow]->on_data(p);
  });
  reverse.set_receiver([&](const Packet& ack) {
    const int id = static_cast<int>(ack.flow) * 1'000'000 +
                   static_cast<int>(ack.seq);
    log(-1 - id);
    senders[ack.flow]->on_ack(ack);
    sched.post_after(SimTime::nanos(ack.seq % 17), [&sched, &log, id] {
      log(30'000'000 + id);
      sched.post_after(SimTime::nanos(4), [&sched, &log, id] {
        sched.post_after(SimTime::micros(120),
                         [&log, id] { log(50'000'000 + id); });
      });
    });
  });
  std::vector<Link*> links{&bottleneck, &reverse};
  for (auto& entry : entries) links.push_back(entry.get());
  if (hub != nullptr) {
    bottleneck.bind(*hub, "bottleneck", 1);
    for (std::size_t k = 0; k < entries.size(); ++k) {
      entries[k]->bind(*hub, "entry" + std::to_string(k), 0);
    }
  }
  std::vector<std::unique_ptr<FtpSource>> sources;
  for (auto& sender : senders) {
    sources.push_back(std::make_unique<FtpSource>(*sender));
  }
  // Posts on the 120 us lattice, where deliveries and ACKs land.
  for (int i = 1; i < 8000; ++i) {
    sched.post_at(SimTime::micros(120 * i), [&log, i] { log(10'000'000 + i); });
  }
  for (const SimTime horizon : checkpoints) {
    sched.run_until(horizon);
    out.checkpoints.push_back(snapshot(sched, links, {0, 1, 2}, horizon));
  }
  out.lazy = true;
  for (const Link* link : links) out.lazy = out.lazy && link->lazy();
  if (hub != nullptr) hub->metrics()->freeze_samplers();
  return run;
}

TEST(LazyLink, SenderJitterFeedsLazyEntryLinksLikeEager) {
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    // Horizons on and just after emissions, so some fall between an
    // emission and its entry tx-done (4 ns on), taken from an eager run.
    const SimTime end = SimTime::millis(900);
    const SendHopRun probe = run_send_hops(seed, false, {end});
    std::vector<SimTime> horizons{SimTime::micros(50), end};
    std::size_t emission_ties = 0;
    for (const auto& emitted : probe.emissions) {
      std::int64_t done = -1;  // the entry's newest tx-done
      for (std::size_t k = 0; k < emitted.size(); ++k) {
        if (emitted[k] == done) ++emission_ties;
        done = std::max(emitted[k], done) + 4;
        if (k % 50 == 7) {
          horizons.push_back(SimTime::nanos(emitted[k]));
          horizons.push_back(SimTime::nanos(emitted[k] + 1));
        }
      }
    }
    EXPECT_GT(emission_ties, 100u) << "emissions must tie with entry tx-dones";
    std::sort(horizons.begin(), horizons.end());
    horizons.erase(std::unique(horizons.begin(), horizons.end()),
                   horizons.end());
    ASSERT_GT(horizons.size(), 60u);
    const SendHopRun eager = run_send_hops(seed, false, horizons);
    const SendHopRun lazy = run_send_hops(seed, true, horizons);
    EXPECT_FALSE(eager.out.lazy);
    ASSERT_TRUE(lazy.out.lazy);
    EXPECT_EQ(eager.emissions, probe.emissions);
    for (const auto& emitted : lazy.emissions) {
      EXPECT_TRUE(emitted.empty()) << "lazy emissions never pop";
    }
    expect_same(eager.out, lazy.out);
    EXPECT_GT(ties(eager.out), 100u);
    EXPECT_GT(eager.out.checkpoints.back().drops[0], 0u);
  }
}

// Two hand-built ties of an emission with its entry's newest tx-done.
// Zero jitter (30 ps truncates to 0 ns) keeps each emission at max(now,
// previous + 1 ns); the callback order at 30 ms follows.
std::vector<int> emission_after_tx_done(bool lazy) {
  // Tx 1 ms.  p0 emits at 1 ns (the first emission follows t = 0), so its
  // tx-done T0 is at 1 ms + 1 ns, keyed by a claim of p0's emission.  X
  // (posted first) pops before T0, then Y, claimed in X after T0's key:
  // Y posts W for p1's tx-done time and sends p1, whose emission at Y's
  // time finds T0 passed, so p1's tx-done is keyed by a claim made after
  // W's — W pops first, and R, posted by W for p1's delivery time,
  // precedes that delivery.
  Scheduler sched;
  std::vector<int> order;
  if (!lazy) sched.keep_links_eager();
  Link entry(sched, LinkConfig{12e6, SimTime::millis(10), 0});
  entry.set_receiver(
      [&](const Packet& p) { order.push_back(static_cast<int>(p.seq)); });
  TcpConfig tcp;
  tcp.send_overhead_s = 30e-12;
  RenoSender sender(sched, 1, tcp,
                    [&entry](const Packet& p) { entry.send(p); }, &entry);
  const SimTime t0 = SimTime::millis(1) + SimTime::nanos(1);
  sched.post_at(t0, [&] {  // X
    sched.post_at(t0, [&] {  // Y
      sched.post_at(t0 + SimTime::millis(1), [&] {  // W
        sched.post_at(t0 + SimTime::millis(11),
                      [&] { order.push_back(-1); });  // R
      });
      sender.enqueue(1);
    });
  });
  sender.enqueue(0);
  sched.run_until(SimTime::millis(30));
  EXPECT_EQ(entry.lazy(), lazy);
  return order;
}

std::vector<int> emission_before_tx_done(bool lazy) {
  // Tx 1 ns.  p0 and p1 are sent together at t = 0 and emit at 1 ns and
  // 2 ns; p1's emission key is claimed before p0's emission passes, so at
  // 2 ns it pops before p0's tx-done T0 and finds the entry busy: p1's
  // tx-done is T0's successor claim.  Q (posted at 2 ns) pops between the
  // two and posts W for p1's tx-done time; W's key was claimed before T0
  // passed, so W pops before p1's tx-done and R, posted by W for p1's
  // delivery time, precedes that delivery.
  Scheduler sched;
  std::vector<int> order;
  if (!lazy) sched.keep_links_eager();
  Link entry(sched, LinkConfig{12e12, SimTime::millis(10), 0});
  entry.set_receiver(
      [&](const Packet& p) { order.push_back(static_cast<int>(p.seq)); });
  TcpConfig tcp;
  tcp.send_overhead_s = 30e-12;
  RenoSender sender(sched, 1, tcp,
                    [&entry](const Packet& p) { entry.send(p); }, &entry);
  sender.enqueue(0);
  sender.enqueue(1);
  const SimTime t1 = SimTime::nanos(3);  // p1's tx-done
  sched.post_at(SimTime::nanos(2), [&] {  // Q
    sched.post_at(t1, [&] {  // W
      sched.post_at(t1 + SimTime::millis(10),
                    [&] { order.push_back(-1); });  // R
    });
  });
  sched.run_until(SimTime::millis(30));
  EXPECT_EQ(entry.lazy(), lazy);
  return order;
}

TEST(LazyLink, HandBuiltEmissionTiesMatchEager) {
  const std::vector<int> expected{0, -1, 1};
  EXPECT_EQ(emission_after_tx_done(false), expected);
  EXPECT_EQ(emission_after_tx_done(true), expected);
  EXPECT_EQ(emission_before_tx_done(false), expected);
  EXPECT_EQ(emission_before_tx_done(true), expected);
}

TEST(LazyLink, SendAtFeedsOnlyUnboundedLinksWithNoOtherFeed) {
  Scheduler sched;
  const LinkConfig access{100e6, SimTime::millis(1), 0};
  Link entry(sched, access), upstream(sched, access), fed(sched, access);
  Link bounded(sched, LinkConfig{100e6, SimTime::millis(1), 4});
  LinkConfig pie_config = access;
  pie_config.qdisc = QdiscSpec::parse("pie");
  Link pie(sched, pie_config);
  for (Link* link : {&entry, &upstream, &fed, &bounded, &pie}) {
    link->set_receiver([](const Packet&) {});
  }
  upstream.set_receiver(&fed);
  Packet p;
  p.size_bytes = 1500;
  EXPECT_TRUE(entry.send_at(SimTime::micros(5), p));
  EXPECT_TRUE(entry.lazy());
  EXPECT_THROW(entry.send(p), std::logic_error);  // its source feeds it alone
  EXPECT_THROW(upstream.set_receiver(&entry), std::logic_error);
  EXPECT_FALSE(fed.send_at(SimTime::micros(5), p));      // a link feeds it
  EXPECT_FALSE(bounded.send_at(SimTime::micros(5), p));  // needs its queue
  EXPECT_FALSE(pie.send_at(SimTime::micros(5), p));  // AQM runs eager
  // The emission's key; the refusals claimed none.
  EXPECT_EQ(sched.events_scheduled(), 1u);
  sched.run();
  EXPECT_EQ(entry.total_arrivals(), 1u);
  EXPECT_EQ(entry.total_delivered(), 1u);
  // The emission, its tx-done and the delivery; only the delivery pops.
  EXPECT_EQ(sched.events_executed(), 3u);
  EXPECT_EQ(sched.events_dispatched(), 1u);
}

// Bound entry links fed by jittered emissions record like eager ones,
// emission/tx-done ties at one nanosecond included.
TEST(LazyLink, BoundSendHopsRecordLikeEager) {
  for (std::uint64_t seed : {3u, 17u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const std::vector<SimTime> horizons{SimTime::millis(300),
                                        SimTime::millis(900)};
    const auto eager_hub = recording_hub();
    const auto lazy_hub = recording_hub();
    const SendHopRun eager =
        run_send_hops(seed, false, horizons, eager_hub.get());
    const SendHopRun lazy = run_send_hops(seed, true, horizons, lazy_hub.get());
    ASSERT_TRUE(lazy.out.lazy);
    expect_same(eager.out, lazy.out);
    const std::vector<std::string> links{"bottleneck", "entry0", "entry1",
                                         "entry2"};
    const Records want = records(*eager_hub, links);
    const Records got = records(*lazy_hub, links);
    EXPECT_GT(want.windows.size(), 100u);
    EXPECT_EQ(want.windows, got.windows);
    EXPECT_EQ(want.counters, got.counters);
    EXPECT_EQ(want.events, got.events);
  }
}

// Identical paths in lockstep: with no send jitter every tx-done on one
// path ties with its twin's on the same nanosecond, busy period after
// busy period, and each tie asks for the order of the two chains' roots.
Outcome run_twin_paths(int config_id, int paths, bool lazy) {
  Scheduler sched;
  if (!lazy) sched.keep_links_eager();
  Outcome out;
  std::vector<std::unique_ptr<DumbbellPath>> dumbbells;
  std::vector<TcpConnection> connections;
  std::vector<std::unique_ptr<FtpSource>> sources;
  for (int k = 0; k < paths; ++k) {
    dumbbells.push_back(std::make_unique<DumbbellPath>(
        sched, table1_config(config_id).bottleneck()));
    connections.push_back(make_connection(sched, 1, *dumbbells.back(), {}));
    connections.back().sink->set_deliver_callback(
        [&out, k](std::int64_t, SimTime when) {
          out.pop_ns.push_back(when.ns());
          out.pop_id.push_back(k);
        });
    sources.push_back(
        std::make_unique<FtpSource>(*connections.back().sender));
  }
  std::vector<Link*> bottlenecks;
  for (auto& dumbbell : dumbbells) {
    bottlenecks.push_back(&dumbbell->bottleneck());
  }
  for (const double s : {0.5, 1.0, 5.0, 20.0, 60.0}) {
    const SimTime horizon = SimTime::seconds(s);
    sched.run_until(horizon);
    out.checkpoints.push_back(snapshot(sched, bottlenecks, {1}, horizon));
  }
  out.lazy = true;
  for (const Link* link : bottlenecks) out.lazy = out.lazy && link->lazy();
  return out;
}

TEST(LazyLink, TwinPathsInLockstepMatchEager) {
  // Table-1 configs 2 and 4 (1 ms bottleneck propagation), two and three
  // paths.
  for (const auto& [config_id, paths] :
       std::vector<std::pair<int, int>>{{2, 2}, {4, 3}, {2, 5}}) {
    SCOPED_TRACE(testing::Message()
                 << "config " << config_id << ", " << paths << " paths");
    const Outcome eager = run_twin_paths(config_id, paths, false);
    const Outcome lazy = run_twin_paths(config_id, paths, true);
    EXPECT_FALSE(eager.lazy);
    ASSERT_TRUE(lazy.lazy);
    expect_same(eager, lazy);
  }
}


// --- faults: a lazy link runs up to its next declared fault ---

// One fault hook call: 0 set_down(true), 1 set_down(false), 2 drop_next
// (`count`), 3 rescale(bw, delay).
struct Fault {
  std::int64_t at_ns;
  int kind;
  double bw = 1.0;
  double delay = 1.0;
  std::uint64_t count = 0;
};

struct FaultedRun {
  Outcome out;
  // Real pops the lazy engine saves by now: the link's and the exit's
  // tx-dones and, fused, the link -> exit deliveries.
  std::vector<std::uint64_t> virtual_pops;
};

// A 5 Mb/s link (2.4 ms per 1500 B, 10 ms) with `buffer` under `faults`,
// into an unbounded 100 Mb/s exit (40 ms) it alone feeds, into a sink that
// sends every fourth delivery back into the link.  The scripted sends and
// posts of run_arm's lattice workload compete.  The faults are posted
// before anything else, as FaultInjector::arm does, so each pops first at
// its nanosecond; both arms declare them.
FaultedRun run_faulted(const std::vector<Op>& script,
                       const std::vector<Fault>& faults, bool lazy,
                       std::size_t buffer, obs::Hub* hub = nullptr) {
  Scheduler sched;
  FaultedRun run;
  Outcome& out = run.out;
  const auto log = [&out, &sched](int id) {
    out.pop_ns.push_back(sched.now().ns());
    out.pop_id.push_back(id);
  };
  if (!lazy) sched.keep_links_eager();
  Link link(sched, LinkConfig{5e6, SimTime::millis(10), buffer});
  Link exit(sched, LinkConfig{100e6, SimTime::millis(40), 0});
  if (hub != nullptr) {
    link.bind(*hub, "link", 1);
    exit.bind(*hub, "exit", 2);
  }
  exit.set_upstream_only();
  link.set_receiver(&exit);
  int feedback_id = 1'000'000;
  exit.set_receiver([&](const Packet& p) {
    log(static_cast<int>(p.seq));
    if (p.seq % 4 == 0) {
      Packet back = p;
      back.flow = 2;
      back.seq = feedback_id++;
      back.app_tag = back.seq;
      link.send(back);
    }
  });
  for (const Fault& f : faults) {
    const SimTime at = SimTime::nanos(f.at_ns);
    if (f.kind == 3) {
      link.declare_fault(at, f.delay);
    } else {
      link.declare_fault(at);
    }
    sched.post_at(at, [&link, &log, f] {
      log(8'000'000 + f.kind);
      switch (f.kind) {
        case 0:
          link.set_down(true);
          break;
        case 1:
          link.set_down(false);
          break;
        case 2:
          link.drop_next(f.count);
          break;
        default:
          link.rescale(f.bw, f.delay);
      }
    });
  }
  for (const Op& op : script) {
    const SimTime at = SimTime::nanos(op.at_ns);
    Packet p;
    p.flow = 1;
    p.seq = op.id;
    p.app_tag = op.id;
    p.size_bytes = op.bytes;
    if (op.kind == 1) {
      // A post whose follow-up send lands on deliveries' nanoseconds.
      sched.post_at(at, [&sched, &link, &log, p, id = op.id] {
        log(2'000'000 + id);
        sched.post_after(echo_delay(id), [&link, &log, p, id] {
          log(5'000'000 + id);
          link.send(p);
        });
      });
    } else {
      sched.post_at(at, [&link, &log, p, id = op.id] {
        log(-1 - id);
        link.send(p);
      });
    }
  }
  for (const SimTime horizon : lattice_checkpoints()) {
    sched.run_until(horizon);
    out.checkpoints.push_back(snapshot(sched, {&link, &exit}, {1, 2}, horizon));
    run.virtual_pops.push_back(link.total_delivered() +
                               exit.total_delivered());
  }
  out.lazy = link.lazy() && exit.lazy();
  if (hub != nullptr) hub->metrics()->freeze_samplers();
  try {
    link.set_receiver(&exit);  // rewiring a fused hop throws
  } catch (const std::logic_error&) {
    out.fused = true;
    for (std::size_t c = 0; c < out.checkpoints.size(); ++c) {
      run.virtual_pops[c] += out.checkpoints[c].arrivals[1];
    }
  }
  return run;
}

// Down/up windows on the lattice, back to back now and then, with burst
// losses in and out of them; `rescales` adds rescales of bandwidth (x0.5,
// x2) and delay, the delay only growing unless `shrink`.
std::vector<Fault> make_fault_plan(std::uint64_t seed, bool rescales,
                                   bool shrink) {
  std::mt19937_64 rng(seed * 7919);
  std::vector<Fault> plan;
  std::int64_t t = 0;
  double delay = 1.0;
  while (true) {
    t += static_cast<std::int64_t>(20 + rng() % 400) * kLatticeNs;
    const std::int64_t up = t + static_cast<std::int64_t>(rng() % 200) *
                                    kLatticeNs;  // 0: back to back
    if (up > 700'000'000) break;
    plan.push_back(Fault{t, 0});
    if (rng() % 3 == 0) plan.push_back(Fault{t + kLatticeNs, 2, 1, 1, 4});
    plan.push_back(Fault{up, 1});
    if (rng() % 3 == 0) plan.push_back(Fault{up, 2, 1, 1, 1 + rng() % 6});
    if (rescales && rng() % 2 == 0) {
      static constexpr double kBw[] = {0.5, 1.0, 2.0};
      delay = shrink && rng() % 2 == 0 ? delay * 0.25 : delay * 1.5;
      plan.push_back(Fault{up + static_cast<std::int64_t>(rng() % 40) *
                                    kLatticeNs,
                           3, kBw[rng() % 3], delay});
    }
    t = up;
  }
  std::stable_sort(plan.begin(), plan.end(), [](const Fault& a,
                                                const Fault& b) {
    return a.at_ns < b.at_ns;
  });
  return plan;
}

void expect_faulted_matches(const std::vector<Op>& script,
                            const std::vector<Fault>& faults,
                            std::size_t buffer, bool fused) {
  const FaultedRun eager = run_faulted(script, faults, false, buffer);
  const FaultedRun lazy = run_faulted(script, faults, true, buffer);
  EXPECT_FALSE(eager.out.lazy);
  ASSERT_TRUE(lazy.out.lazy);
  EXPECT_EQ(lazy.out.fused, fused);
  expect_same(eager.out, lazy.out);
  for (std::size_t c = 0; c < eager.out.checkpoints.size(); ++c) {
    // No real tx-done pops on the lazy side, nor fused deliveries.
    EXPECT_EQ(lazy.out.checkpoints[c].dispatched,
              eager.out.checkpoints[c].dispatched - lazy.virtual_pops[c])
        << "checkpoint " << c;
  }
  EXPECT_GT(eager.out.checkpoints.back().fault_drops[0], 0u);
  EXPECT_GT(ties(eager.out), 100u);
}

TEST(LazyLinkFaults, DownWindowsMatchEagerAndFuseTheExit) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (std::size_t buffer : {0u, 3u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " buffer "
                                      << buffer);
      const std::vector<Op> script = make_script(seed, 2000);
      expect_faulted_matches(script, make_fault_plan(seed, false, false),
                             buffer, true);
    }
  }
}

TEST(LazyLinkFaults, RescalesMatchEager) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool shrink : {false, true}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " shrink "
                                      << shrink);
      const std::vector<Op> script = make_script(seed + 100, 2000);
      const std::vector<Fault> plan = make_fault_plan(seed, true, shrink);
      // Only a delay that shrinks below an earlier one keeps the hop real.
      double delay = 1.0;
      bool shrinks = false;
      for (const Fault& f : plan) {
        if (f.kind != 3) continue;
        shrinks = shrinks || f.delay < delay;
        delay = std::max(delay, f.delay);
      }
      ASSERT_EQ(shrinks, shrink);
      expect_faulted_matches(script, plan, seed % 2 == 0 ? 3 : 0, !shrink);
    }
  }
}

TEST(LazyLinkFaults, BoundFaultedLinkRecordsLikeEager) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const std::vector<Op> script = make_script(seed, 2000);
    const std::vector<Fault> plan = make_fault_plan(seed, true, seed == 2);
    const auto eager_hub = recording_hub();
    const auto lazy_hub = recording_hub();
    const FaultedRun eager =
        run_faulted(script, plan, false, 3, eager_hub.get());
    const FaultedRun lazy = run_faulted(script, plan, true, 3, lazy_hub.get());
    ASSERT_TRUE(lazy.out.lazy);
    expect_same(eager.out, lazy.out);
    const std::vector<std::string> links{"link", "exit"};
    const Records want = records(*eager_hub, links);
    const Records got = records(*lazy_hub, links);
    EXPECT_GT(want.spans.size(), 2000u);
    EXPECT_EQ(want.spans, got.spans);
    EXPECT_EQ(want.windows, got.windows);
    EXPECT_EQ(want.counters, got.counters);
    EXPECT_EQ(want.events, got.events);
  }
}

// Hand-built cases on a 12 Mb/s link (1 ms per 1500 B, 10 ms): what is
// delivered when, and the link's counters at the end.
struct HandRun {
  std::vector<std::int64_t> delivered;  // (time ns, packet) pairs
  std::vector<std::uint64_t> counts;  // executed, scheduled, drops, fault
                                      // drops, delivered, arrivals
  bool lazy = false;
};

HandRun hand_faulted(bool lazy, std::size_t buffer,
                     const std::vector<Fault>& faults,
                     const std::vector<std::int64_t>& sends_us) {
  Scheduler sched;
  if (!lazy) sched.keep_links_eager();
  HandRun run;
  Link link(sched, LinkConfig{12e6, SimTime::millis(10), buffer});
  link.set_receiver([&](const Packet& p) {
    run.delivered.push_back(sched.now().ns());
    run.delivered.push_back(p.seq);
  });
  for (const Fault& f : faults) {
    const SimTime at = SimTime::nanos(f.at_ns);
    if (f.kind == 3) {
      link.declare_fault(at, f.delay);
    } else {
      link.declare_fault(at);
    }
    sched.post_at(at, [&link, f] {
      if (f.kind == 0) link.set_down(true);
      if (f.kind == 1) link.set_down(false);
      if (f.kind == 2) link.drop_next(f.count);
      if (f.kind == 3) link.rescale(f.bw, f.delay);
    });
  }
  for (std::size_t i = 0; i < sends_us.size(); ++i) {
    sched.post_at(SimTime::micros(sends_us[i]), [&link, i] {
      Packet p;
      p.size_bytes = 1500;
      p.seq = static_cast<std::int64_t>(i);
      link.send(p);
    });
  }
  sched.run();
  run.counts = {sched.events_executed(), sched.events_scheduled(),
                link.total_drops(),      link.fault_drops(),
                link.total_delivered(),  link.total_arrivals()};
  run.lazy = link.lazy();
  return run;
}

void expect_hand_matches(std::size_t buffer, const std::vector<Fault>& faults,
                         const std::vector<std::int64_t>& sends_us,
                         const std::vector<std::int64_t>& want) {
  const HandRun eager = hand_faulted(false, buffer, faults, sends_us);
  const HandRun lazy = hand_faulted(true, buffer, faults, sends_us);
  EXPECT_FALSE(eager.lazy);
  EXPECT_TRUE(lazy.lazy);
  EXPECT_EQ(eager.delivered, want);
  EXPECT_EQ(lazy.delivered, want);
  EXPECT_EQ(eager.counts, lazy.counts);
}

constexpr std::int64_t kMs = 1'000'000;

TEST(LazyLinkFaults, FaultOnATxDoneNanosecondPopsFirst) {
  // p0 ends its transmission at 1 ms, where the link goes down: the fault
  // pops first, so p1 stays frozen until the link comes up at 3 ms.
  expect_hand_matches(0, {{1 * kMs, 0}, {3 * kMs, 1}}, {0, 0},
                      {11 * kMs, 0, 14 * kMs, 1});
  // Up at exactly p0's tx-done (down at 0.5 ms): p0 finishes after the
  // link is up again, so p1 starts at 1 ms as if nothing had happened.
  expect_hand_matches(0, {{kMs / 2, 0}, {1 * kMs, 1}}, {0, 0},
                      {11 * kMs, 0, 12 * kMs, 1});
  // A rescale (delay x2) on p0's tx-done pops first too, so p0's delivery
  // already takes the new delay.
  expect_hand_matches(0, {{1 * kMs, 3, 1.0, 2.0}}, {0, 0},
                      {21 * kMs, 0, 22 * kMs, 1});
}

TEST(LazyLinkFaults, DownWhileIdleDropsArrivalsAndFreezesNothing) {
  // Down at 5 ms with nothing to send: p1 (6 ms) is a fault drop, p2
  // (8 ms, after the link came up at 7 ms) goes through.
  expect_hand_matches(0, {{5 * kMs, 0}, {7 * kMs, 1}}, {0, 6000, 8000},
                      {11 * kMs, 0, 19 * kMs, 2});
}

TEST(LazyLinkFaults, RescaleOnTheWireAndAnUndercuttingDelivery) {
  // p0..p2 sent at 0; at 1.5 ms the delay shrinks to 1 ms and the
  // bandwidth doubles.  p1, on the wire, keeps its tx (done at 2 ms) and
  // takes the new delay: delivered at 3 ms, before p0 (11 ms).  p2 starts
  // at 2 ms at the new rate (0.5 ms).
  expect_hand_matches(0, {{3 * kMs / 2, 3, 2.0, 0.1}}, {0, 0, 0},
                      {3 * kMs, 1, 3 * kMs + kMs / 2, 2, 11 * kMs, 0});
  // Slower and longer: p1 keeps its tx, p2 takes 2 ms and the 20 ms delay.
  expect_hand_matches(0, {{3 * kMs / 2, 3, 0.5, 2.0}}, {0, 0, 0},
                      {11 * kMs, 0, 22 * kMs, 1, 24 * kMs, 2});
}

TEST(LazyLinkFaults, FiniteBufferFillsAcrossADownWindow) {
  // Buffer 2.  p0..p3 at 0: p3 overflows.  Down at 0.5 ms (p0 on the
  // wire), p4 at 2 ms is a fault drop; up at 4 ms restarts p1; p5..p7 at
  // 4.2 ms find p1 on the wire and p2 queued, so p5 fills the buffer and
  // p6 and p7 overflow.
  const std::vector<std::int64_t> sends{0, 0, 0, 0, 2000, 4200, 4200, 4200};
  const HandRun lazy =
      hand_faulted(true, 2, {{kMs / 2, 0}, {4 * kMs, 1}}, sends);
  expect_hand_matches(2, {{kMs / 2, 0}, {4 * kMs, 1}}, sends,
                      {11 * kMs, 0, 15 * kMs, 1, 16 * kMs, 2, 17 * kMs, 5});
  EXPECT_EQ(lazy.counts[2], 3u);  // p3, p6 and p7 overflowed
  EXPECT_EQ(lazy.counts[3], 1u);  // p4 hit the outage
}

TEST(LazyLinkFaults, BurstLossDuringAnOutage) {
  // drop_next(2) while down: the outage drops p1 without using up the
  // burst, which takes p2 and p3 once the link is up; p4 goes through.
  expect_hand_matches(0, {{1 * kMs, 0}, {2 * kMs, 2, 1, 1, 2}, {5 * kMs, 1}},
                      {0, 3000, 6000, 7000, 8000},
                      {11 * kMs, 0, 19 * kMs, 4});
}

TEST(LazyLinkFaults, UndeclaredOrOverdueFaultsThrow) {
  Scheduler sched;
  Link link(sched, LinkConfig{12e6, SimTime::millis(10), 0});
  link.set_receiver([](const Packet&) {});
  link.declare_fault(SimTime::millis(1));
  Packet p;
  p.size_bytes = 1500;
  link.send(p);
  ASSERT_TRUE(link.lazy());
  EXPECT_THROW(link.declare_fault(SimTime::millis(2)), std::logic_error);
  EXPECT_THROW(link.set_down(true), std::logic_error);  // at 0, undeclared
  // The declared fault never runs: an arrival after its time throws.
  sched.post_at(SimTime::millis(2), [&] {
    EXPECT_THROW(link.send(p), std::logic_error);
  });
  sched.run();
}

// --- merges by lookahead: several upstream links into one fed link ---

// Four 100 Mb/s upstream links (twins at 10 ms, then 12 ms and 30 ms)
// into a 5 Mb/s merge link (10 ms) with a 2-packet buffer, declared
// upstream-only, into a 100 Mb/s exit (40 ms) it alone feeds, into a sink
// that sends every fourth delivery back into an upstream link.  A twin
// send goes into both twins in one pop, so their deliveries tie at one
// nanosecond.  The merge goes down and up and takes burst losses, all
// declared.  Probes posted on the lattice, and after the echo delays on
// deliveries' nanoseconds, read the merge's and the exit's counters from
// inside their pops.
struct MergeRun {
  Outcome out;
  std::vector<std::uint64_t> reads;
  bool merged = false;  // the hops into the merge link are fused
};

MergeRun run_merge(const std::vector<Op>& script, bool lazy,
                   obs::Hub* hub = nullptr) {
  Scheduler sched;
  if (!lazy) sched.keep_links_eager();
  MergeRun run;
  Outcome& out = run.out;
  const auto log = [&out, &sched](int id) {
    out.pop_ns.push_back(sched.now().ns());
    out.pop_id.push_back(id);
  };
  std::vector<std::unique_ptr<Link>> ups;
  for (const std::int64_t prop_ms : {10, 10, 12, 30}) {
    ups.push_back(std::make_unique<Link>(
        sched, LinkConfig{100e6, SimTime::millis(prop_ms), 0}));
  }
  Link merge(sched, LinkConfig{5e6, SimTime::millis(10), 2});
  Link exit(sched, LinkConfig{100e6, SimTime::millis(40), 0});
  if (hub != nullptr) {
    for (const auto& up : ups) up->bind(*hub, "", 0);
    merge.bind(*hub, "merge", 1);
    exit.bind(*hub, "exit", 2);
  }
  merge.set_upstream_only();
  exit.set_upstream_only();
  for (const auto& up : ups) up->set_receiver(&merge);
  merge.set_receiver(&exit);
  const std::vector<Fault> faults{
      {60'000'000, 0},          {60'000'000 + 3 * kLatticeNs, 2, 1, 1, 2},
      {90'000'000, 1},          {150'000'000, 2, 1, 1, 3},
      {300'000'000 + 7 * kLatticeNs, 0},
      {300'000'000 + 7 * kLatticeNs, 1},
      {420'000'000, 2, 1, 1, 1}};
  for (const Fault& f : faults) {
    const SimTime at = SimTime::nanos(f.at_ns);
    merge.declare_fault(at);
    sched.post_at(at, [&merge, &log, f] {
      log(8'000'000 + f.kind);
      if (f.kind == 0) merge.set_down(true);
      if (f.kind == 1) merge.set_down(false);
      if (f.kind == 2) merge.drop_next(f.count);
    });
  }
  int feedback_id = 1'000'000;
  exit.set_receiver([&](const Packet& p) {
    log(static_cast<int>(p.seq));
    if (p.seq % 4 == 0) {
      Packet back = p;
      back.flow = 2;
      back.seq = feedback_id++;
      back.app_tag = back.seq;
      ups[static_cast<std::size_t>(back.seq) % ups.size()]->send(back);
    }
  });
  const auto read = [&run, &merge, &exit] {
    for (const Link* link : {&merge, &exit}) {
      run.reads.push_back(link->total_arrivals());
      run.reads.push_back(link->queue_length());
      run.reads.push_back(link->total_drops());
      for (const FlowId flow : {FlowId{1}, FlowId{2}}) {
        run.reads.push_back(link->flow_counters(flow).arrivals);
        run.reads.push_back(link->flow_counters(flow).drops);
      }
    }
    run.reads.push_back(merge.fault_drops());
    run.reads.push_back(merge.burst_remaining());
  };
  for (const Op& op : script) {
    const SimTime at = SimTime::nanos(op.at_ns);
    Packet p;
    p.flow = 1;
    p.seq = op.id;
    p.app_tag = op.id;
    p.size_bytes = op.bytes;
    Link* up = ups[static_cast<std::size_t>(op.id) % ups.size()].get();
    switch (op.kind) {
      case 0:
        sched.post_at(at, [up, p, &log, id = op.id] {
          log(-1 - id);
          up->send(p);
        });
        break;
      case 4:
        sched.post_at(at, [&ups, p, &log, id = op.id] {
          log(-1 - id);
          Packet twin = p;
          twin.flow = 2;
          ups[0]->send(p);
          ups[1]->send(twin);
        });
        break;
      case 1:
        sched.post_at(at, [&sched, up, p, &log, &read, id = op.id] {
          log(2'000'000 + id);
          sched.post_after(echo_delay(id), [up, p, &log, &read, id] {
            log(5'000'000 + id);
            read();
            up->send(p);
          });
        });
        break;
      default:
        sched.post_at(at, [&log, &read, id = op.id] {
          log(3'000'000 + id);
          read();
        });
        break;
    }
  }
  std::vector<Link*> links;
  for (const auto& up : ups) links.push_back(up.get());
  links.push_back(&merge);
  links.push_back(&exit);
  for (const SimTime horizon : lattice_checkpoints()) {
    sched.run_until(horizon);
    out.checkpoints.push_back(snapshot(sched, links, {1, 2}, horizon));
  }
  out.lazy = true;
  for (const Link* link : links) out.lazy = out.lazy && link->lazy();
  if (hub != nullptr) hub->metrics()->freeze_samplers();
  try {
    ups[0]->set_receiver(&merge);  // rewiring a fused hop throws
  } catch (const std::logic_error&) {
    run.merged = true;
  }
  return run;
}

TEST(LazyLinkMerge, ManyUpstreamLinksIntoAFiniteBufferMatchEager) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const std::vector<Op> script = make_script(seed + 200, 3000);
    const MergeRun eager = run_merge(script, false);
    const MergeRun lazy = run_merge(script, true);
    EXPECT_FALSE(eager.out.lazy);
    ASSERT_TRUE(lazy.out.lazy);
    EXPECT_FALSE(eager.merged);
    EXPECT_TRUE(lazy.merged);
    expect_same(eager.out, lazy.out);
    EXPECT_EQ(eager.reads, lazy.reads);
    EXPECT_GT(eager.reads.size(), 1000u);
    EXPECT_GT(ties(eager.out), 100u);
    const Checkpoint& last = eager.out.checkpoints.back();
    EXPECT_GT(last.overlimit[4], 0u);    // the 2-packet buffer overflows
    EXPECT_GT(last.fault_drops[4], 0u);  // and the faults drop
    // Every arrival into the merge link and the exit is virtual too.
    EXPECT_LE(lazy.out.checkpoints.back().dispatched +
                  last.arrivals[4] + last.arrivals[5],
              last.dispatched);
  }
}

TEST(LazyLinkMerge, BoundMergeLinkRecordsLikeEager) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const std::vector<Op> script = make_script(seed + 300, 3000);
    const auto eager_hub = recording_hub();
    const auto lazy_hub = recording_hub();
    const MergeRun eager = run_merge(script, false, eager_hub.get());
    const MergeRun lazy = run_merge(script, true, lazy_hub.get());
    ASSERT_TRUE(lazy.merged);
    expect_same(eager.out, lazy.out);
    EXPECT_EQ(eager.reads, lazy.reads);
    const std::vector<std::string> links{"merge", "exit"};
    const Records want = records(*eager_hub, links);
    const Records got = records(*lazy_hub, links);
    EXPECT_GT(want.spans.size(), 3000u);
    EXPECT_FALSE(want.events.empty());
    EXPECT_EQ(want.spans, got.spans);
    EXPECT_EQ(want.windows, got.windows);
    EXPECT_EQ(want.counters, got.counters);
    // The event log is in record order, unsorted: a drop decided ahead of
    // the clock is recorded at its arrival's key.
    EXPECT_EQ(want.events, got.events);
  }
}

}  // namespace
}  // namespace dmp
