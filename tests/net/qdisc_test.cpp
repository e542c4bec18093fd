// Differential and integration tests for the queue disciplines
// (src/net/qdisc/): the PIE controller against a hand-stepped RFC 8033
// reference, the CoDel sojourn/interval state machine against RFC 8289,
// FQ-PIE flow isolation and DRR fairness, DropTail twin-equivalence with
// the legacy admit/drop semantics, and the Link integration (drop causes,
// counters, metrics gating).
#include "net/qdisc/queue_discipline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <vector>

#include "net/link.hpp"
#include "net/qdisc/codel.hpp"
#include "net/qdisc/droptail.hpp"
#include "net/qdisc/fq_pie.hpp"
#include "net/qdisc/pie.hpp"
#include "obs/hub.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace dmp {
namespace {

Packet data_packet(FlowId flow, std::int64_t seq,
                   std::uint32_t bytes = kDataPacketBytes) {
  Packet p;
  p.flow = flow;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

// --- PIE controller vs a hand-stepped RFC 8033 reference ---

// Independent transcription of the RFC 8033 §5.2 pseudocode, kept
// deliberately flat so a discrepancy localizes to one equation.
struct PieReference {
  PieParams params{};
  double p = 0.0;
  double qdelay_old = 0.0;
  double burst = kPieMaxBurstS;

  void step(double qdelay) {
    double factor = 1.0;
    if (p < 1e-6) factor = 1.0 / 2048.0;
    else if (p < 1e-5) factor = 1.0 / 512.0;
    else if (p < 1e-4) factor = 1.0 / 128.0;
    else if (p < 1e-3) factor = 1.0 / 32.0;
    else if (p < 0.01) factor = 1.0 / 8.0;
    else if (p < 0.1) factor = 1.0 / 2.0;
    double delta = factor * (params.alpha * (qdelay - params.target_s) +
                             params.beta * (qdelay - qdelay_old));
    if (delta > 0.02 && p >= 0.1) delta = 0.02;
    p += delta;
    if (qdelay == 0.0 && qdelay_old == 0.0) p *= 0.98;
    p = std::clamp(p, 0.0, 1.0);
    qdelay_old = qdelay;
    if (burst > 0.0) {
      burst = std::max(0.0, burst - params.tupdate_s);
    } else if (p == 0.0 && qdelay == 0.0 && qdelay_old == 0.0) {
      burst = params.max_burst_s;
    }
  }
};

TEST(PieController, MatchesHandSteppedReference) {
  PieController controller{PieParams{}};
  PieReference reference;
  // A qdelay trajectory that crosses every auto-scaling band: ramp up,
  // plateau, drain to idle, burst again.
  for (int i = 0; i < 400; ++i) {
    double qdelay = 0.0;
    if (i < 120) qdelay = 0.002 * i;         // ramp to 238 ms
    else if (i < 200) qdelay = 0.1;          // plateau
    else if (i < 300) qdelay = 0.0;          // drained
    else qdelay = 0.05;                      // second excursion
    controller.step(qdelay);
    reference.step(qdelay);
    ASSERT_DOUBLE_EQ(controller.drop_prob(), reference.p) << "step " << i;
    ASSERT_DOUBLE_EQ(controller.qdelay_old_s(), reference.qdelay_old);
    ASSERT_DOUBLE_EQ(controller.burst_allowance_s(), reference.burst);
  }
}

TEST(PieController, BurstAllowanceDecrementsPerUpdate) {
  PieController controller{PieParams{}};
  // max_burst 150 ms / tupdate 15 ms = 10 updates to exhaust.  The
  // allowance is a running subtraction, so compare to accumulation noise.
  for (int i = 1; i <= 10; ++i) {
    controller.step(0.05);
    EXPECT_NEAR(controller.burst_allowance_s(),
                kPieMaxBurstS - i * kPieDefaultTupdateS, 1e-12);
  }
  controller.step(0.05);
  EXPECT_DOUBLE_EQ(controller.burst_allowance_s(), 0.0);
}

TEST(PieController, DecaysToZeroWhenIdleAndResetsBurstAllowance) {
  PieController controller{PieParams{}};
  for (int i = 0; i < 30; ++i) controller.step(0.2);  // drive p up
  ASSERT_GT(controller.drop_prob(), 0.0);
  ASSERT_DOUBLE_EQ(controller.burst_allowance_s(), 0.0);
  // Idle: negative alpha term plus the 0.98 decay clamp p to exactly 0,
  // after which the burst allowance is re-armed for the next burst.
  int steps = 0;
  while (controller.drop_prob() > 0.0 && steps < 100000) {
    controller.step(0.0);
    ++steps;
  }
  EXPECT_DOUBLE_EQ(controller.drop_prob(), 0.0);
  // The update that clamped p to 0 also re-armed the allowance; the next
  // quiet update starts consuming the fresh budget again.
  EXPECT_DOUBLE_EQ(controller.burst_allowance_s(), kPieMaxBurstS);
  controller.step(0.0);
  EXPECT_NEAR(controller.burst_allowance_s(),
              kPieMaxBurstS - kPieDefaultTupdateS, 1e-12);
}

TEST(PieController, DeltaCappedOncePIsHigh) {
  PieController controller{PieParams{}};
  controller.step(10.0);  // tiny creep (factor 1/2048)
  controller.step(10.0);  // jump past 0.1 (no cap below p = 0.1)
  const double before = controller.drop_prob();
  ASSERT_GE(before, 0.1);
  controller.step(10.0);  // now the 0.02 per-update cap binds
  EXPECT_NEAR(controller.drop_prob() - before, 0.02, 1e-12);
}

TEST(PieController, DropProbClampsAtOne) {
  PieController controller{PieParams{}};
  for (int i = 0; i < 200; ++i) controller.step(10.0);
  EXPECT_DOUBLE_EQ(controller.drop_prob(), 1.0);
}

// --- PIE qdisc ---

TEST(PieQdisc, QueueDelayTracksQueuedBytes) {
  PieQdisc q(0, PieParams{}, 1);
  q.set_drain_rate(1.2e6);
  EXPECT_DOUBLE_EQ(q.queue_delay_s(), 0.0);
  q.enqueue(data_packet(1, 0), SimTime::zero());
  q.enqueue(data_packet(1, 1), SimTime::zero());
  EXPECT_DOUBLE_EQ(q.queue_delay_s(), 2 * 1500 * 8.0 / 1.2e6);
  Packet out;
  q.dequeue(&out, SimTime::zero());
  EXPECT_DOUBLE_EQ(q.queue_delay_s(), 1500 * 8.0 / 1.2e6);
}

TEST(PieQdisc, BurstAllowanceAdmitsInitialBurst) {
  PieQdisc q(0, PieParams{}, 1);
  q.set_drain_rate(1.2e6);
  // 100 ms of closely-spaced arrivals — inside the 150 ms burst window —
  // must all be admitted however deep the queue gets.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.enqueue(data_packet(1, i), SimTime::millis(i)));
  }
  EXPECT_EQ(q.counters().early_drops, 0u);
  EXPECT_EQ(q.len(), 100u);
}

TEST(PieQdisc, SustainedOverloadProducesEarlyDropsAfterBurstWindow) {
  PieQdisc q(0, PieParams{}, 7);
  q.set_drain_rate(1.2e6);
  std::vector<std::int64_t> dropped;
  q.set_drop_handler([&](const Packet& victim, QdiscDropReason reason) {
    ASSERT_EQ(reason, QdiscDropReason::kEarly);  // unbounded: no overlimit
    dropped.push_back(victim.seq);
  });
  // One arrival per 5 ms, never drained: qdelay ramps, controller ramps.
  for (int i = 0; i < 4000; ++i) {
    q.enqueue(data_packet(1, i), SimTime::millis(5 * i));
  }
  ASSERT_GT(q.counters().early_drops, 0u);
  EXPECT_GT(q.controller().drop_prob(), 0.0);
  // Nothing may be dropped inside the burst allowance (first 150 ms = 30
  // arrivals, plus the controller needs a tupdate to see the backlog).
  EXPECT_GT(dropped.front(), 30);
  EXPECT_EQ(q.counters().early_drops, dropped.size());
}

TEST(PieQdisc, IdenticalSeedsMakeIdenticalDecisions) {
  PieQdisc a(0, PieParams{}, 99);
  PieQdisc b(0, PieParams{}, 99);
  a.set_drain_rate(1.2e6);
  b.set_drain_rate(1.2e6);
  for (int i = 0; i < 3000; ++i) {
    const SimTime now = SimTime::millis(5 * i);
    ASSERT_EQ(a.enqueue(data_packet(1, i), now),
              b.enqueue(data_packet(1, i), now))
        << "arrival " << i;
  }
  EXPECT_EQ(a.counters().early_drops, b.counters().early_drops);
  EXPECT_EQ(a.len(), b.len());
}

TEST(PieQdisc, BufferLimitStillDropsOverlimit) {
  PieQdisc q(3, PieParams{}, 1);
  q.set_drain_rate(1.2e6);
  for (int i = 0; i < 5; ++i) q.enqueue(data_packet(1, i), SimTime::zero());
  EXPECT_EQ(q.len(), 3u);
  EXPECT_EQ(q.counters().overlimit_drops, 2u);
  EXPECT_EQ(q.counters().early_drops, 0u);  // burst allowance still armed
}

// --- CoDel state machine ---

TEST(CoDel, NoDropsWhileSojournBelowTarget) {
  CoDelQdisc q(0, CoDelParams{});
  Packet out;
  for (int i = 0; i < 100; ++i) {
    const SimTime t = SimTime::millis(10 * i);
    q.enqueue(data_packet(1, i), t);
    // Drained 1 ms later: sojourn 1 ms < 5 ms target, never above target.
    ASSERT_TRUE(q.dequeue(&out, t + SimTime::millis(1)));
    EXPECT_EQ(out.seq, i);
  }
  EXPECT_FALSE(q.dropping());
  EXPECT_EQ(q.drop_count(), 0u);
  EXPECT_EQ(q.counters().early_drops, 0u);
}

TEST(CoDel, ExcursionShorterThanIntervalDoesNotDrop) {
  CoDelQdisc q(0, CoDelParams{});  // target 5 ms, interval 100 ms
  for (int i = 0; i < 3; ++i) q.enqueue(data_packet(1, i), SimTime::zero());
  Packet out;
  // Sojourns 50/60/70 ms — all above target, but the excursion ends (queue
  // empties) before the armed interval expires: no drops.
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(50)));
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(60)));
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(70)));
  EXPECT_EQ(q.drop_count(), 0u);
  EXPECT_FALSE(q.dropping());
}

TEST(CoDel, EntersDroppingAfterFullIntervalAboveTarget) {
  CoDelQdisc q(0, CoDelParams{});
  for (int i = 0; i < 10; ++i) q.enqueue(data_packet(1, i), SimTime::zero());
  Packet out;
  // First above-target sojourn arms the interval timer (fires at 250 ms).
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(150)));
  EXPECT_EQ(out.seq, 0);
  EXPECT_FALSE(q.dropping());
  // Still inside the armed interval: no drop.
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(200)));
  EXPECT_EQ(out.seq, 1);
  EXPECT_FALSE(q.dropping());
  // Past it: enter dropping — head discarded, next packet delivered.
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(260)));
  EXPECT_EQ(out.seq, 3);  // seq 2 was the first casualty
  EXPECT_TRUE(q.dropping());
  EXPECT_EQ(q.drop_count(), 1u);
  EXPECT_EQ(q.counters().early_drops, 1u);
  // drop_next = entry instant + interval / sqrt(1).
  EXPECT_NEAR(q.drop_next().to_seconds(), 0.26 + 0.1, 1e-9);
}

TEST(CoDel, ControlLawSpacesDropsByInverseSqrtCount) {
  CoDelQdisc q(0, CoDelParams{});
  for (int i = 0; i < 30; ++i) q.enqueue(data_packet(1, i), SimTime::zero());
  Packet out;
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(150)));   // arm (fires 250 ms)
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(260)));   // enter, count = 1
  ASSERT_EQ(q.drop_count(), 1u);
  // A dequeue far past drop_next catches up through the control-law
  // schedule — drops at 360, 360 + 100/sqrt(2), + 100/sqrt(3) — and the
  // schedule is then advanced once more (count 4) past `now`.
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(500)));
  EXPECT_EQ(q.drop_count(), 4u);
  EXPECT_NEAR(q.drop_next().to_seconds(),
              0.36 + 0.1 / std::sqrt(2.0) + 0.1 / std::sqrt(3.0) +
                  0.1 / std::sqrt(4.0),
              1e-6);
  EXPECT_EQ(q.counters().early_drops, 4u);
}

TEST(CoDel, LeavesDroppingWhenSojournFallsBelowTarget) {
  CoDelQdisc q(0, CoDelParams{});
  for (int i = 0; i < 6; ++i) q.enqueue(data_packet(1, i), SimTime::zero());
  Packet out;
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(150)));  // arm
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(260)));  // enter dropping
  ASSERT_TRUE(q.dropping());
  // Drain the stale backlog between control-law instants (no drops), then
  // a fresh packet with a 1 ms sojourn ends the episode.
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(261)));
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(262)));
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(263)));
  q.enqueue(data_packet(1, 100), SimTime::millis(264));
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(265)));
  EXPECT_EQ(out.seq, 100);
  EXPECT_FALSE(q.dropping());
  EXPECT_EQ(q.drop_count(), 1u);
}

TEST(CoDel, ResumesPreviousRateOnQuickReentry) {
  CoDelQdisc q(0, CoDelParams{});
  // Episode 1: 7 packets, enter dropping and burn through the backlog so
  // the count climbs to 4 before the queue empties.
  for (int i = 0; i < 7; ++i) q.enqueue(data_packet(1, i), SimTime::zero());
  Packet out;
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(150)));  // arm (fires 250 ms)
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(260)));  // enter, count = 1
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(500)));  // catch-up drops
  ASSERT_EQ(q.drop_count(), 4u);
  ASSERT_FALSE(q.dropping());  // backlog emptied during the catch-up
  // Episode 2, well inside 16 intervals of the last drop_next: the count
  // resumes from the per-episode delta (4 - 1 = 3) instead of 1.
  for (int i = 10; i < 16; ++i) {
    q.enqueue(data_packet(1, i), SimTime::millis(600));
  }
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(750)));  // arm (fires 850 ms)
  ASSERT_TRUE(q.dequeue(&out, SimTime::millis(860)));  // re-enter
  EXPECT_TRUE(q.dropping());
  EXPECT_EQ(q.drop_count(), 3u);
}

TEST(CoDel, BufferLimitTailDrops) {
  CoDelQdisc q(2, CoDelParams{});
  for (int i = 0; i < 4; ++i) q.enqueue(data_packet(1, i), SimTime::zero());
  EXPECT_EQ(q.len(), 2u);
  EXPECT_EQ(q.counters().overlimit_drops, 2u);
  EXPECT_EQ(q.counters().early_drops, 0u);
}

// --- FQ-PIE ---

// Two flow ids guaranteed to land in different buckets (found by probing
// the deterministic hash, so the test cannot rot if the mix changes).
std::pair<FlowId, FlowId> distinct_bucket_flows(const FqPieQdisc& q) {
  const std::size_t first = q.bucket_of(1);
  for (FlowId flow = 2; flow < 100; ++flow) {
    if (q.bucket_of(flow) != first) return {1, flow};
  }
  ADD_FAILURE() << "hash mapped 99 flows into one bucket";
  return {1, 2};
}

TEST(FqPie, HashSpreadsFlowsAcrossBuckets) {
  FqPieQdisc q(0, 64, PieParams{}, 1);
  std::set<std::size_t> used;
  for (FlowId flow = 0; flow < 64; ++flow) used.insert(q.bucket_of(flow));
  // 64 balls into 64 bins lands ~40 distinct under a good hash; anything
  // above 30 rules out degenerate clustering.
  EXPECT_GT(used.size(), 30u);
  for (const std::size_t bucket : used) EXPECT_LT(bucket, 64u);
}

TEST(FqPie, DrrAlternatesBetweenActiveFlows) {
  FqPieQdisc q(0, 64, PieParams{}, 1);
  const auto [video, flood] = distinct_bucket_flows(q);
  for (int i = 0; i < 4; ++i) {
    q.enqueue(data_packet(video, i), SimTime::zero());
    q.enqueue(data_packet(flood, 100 + i), SimTime::zero());
  }
  // One-quantum (one full packet) DRR: strict alternation.
  Packet out;
  std::vector<FlowId> order;
  while (q.dequeue(&out, SimTime::millis(1))) order.push_back(out.flow);
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i + 2 < order.size(); i += 2) {
    EXPECT_EQ(order[i], order[0]);
    EXPECT_EQ(order[i + 1], order[1]);
    EXPECT_NE(order[i], order[i + 1]);
  }
}

TEST(FqPie, FloodCannotStarveVideoFlow) {
  FqPieQdisc q(0, 64, PieParams{}, 1);
  const auto [video, flood] = distinct_bucket_flows(q);
  for (int i = 0; i < 200; ++i) q.enqueue(data_packet(flood, i), SimTime::zero());
  for (int i = 0; i < 5; ++i) q.enqueue(data_packet(video, i), SimTime::zero());
  // Despite a 40:1 backlog imbalance, the video packets ride their fair
  // share: all 5 are served within the first 10 dequeues.
  Packet out;
  int video_served = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.dequeue(&out, SimTime::millis(1)));
    if (out.flow == video) ++video_served;
  }
  EXPECT_EQ(video_served, 5);
}

TEST(FqPie, OverlimitEvictsHeadOfLongestBucketNotArrival) {
  FqPieQdisc q(4, 64, PieParams{}, 1);
  const auto [video, flood] = distinct_bucket_flows(q);
  for (int i = 0; i < 4; ++i) q.enqueue(data_packet(flood, i), SimTime::zero());
  std::vector<Packet> victims;
  q.set_drop_handler([&](const Packet& victim, QdiscDropReason reason) {
    EXPECT_EQ(reason, QdiscDropReason::kOverlimit);
    victims.push_back(victim);
  });
  // The arriving video packet is admitted; the flooding bucket's HEAD pays.
  EXPECT_TRUE(q.enqueue(data_packet(video, 50), SimTime::zero()));
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].flow, flood);
  EXPECT_EQ(victims[0].seq, 0);
  EXPECT_EQ(q.len(), 4u);
  EXPECT_EQ(q.counters().overlimit_drops, 1u);
}

// --- DropTail twin equivalence ---

TEST(DropTail, TwinMatchesReferenceModelOnRandomizedTrace) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    DropTailQdisc q(10);
    std::deque<Packet> reference;  // the legacy Link::send queue, verbatim
    Rng rng(seed);
    for (int op = 0; op < 5000; ++op) {
      if (rng.uniform() < 0.7) {
        const Packet p = data_packet(1, op);
        const bool admitted_ref = reference.size() < 10;
        if (admitted_ref) reference.push_back(p);
        ASSERT_EQ(q.enqueue(p, SimTime::millis(op)), admitted_ref)
            << "seed " << seed << " op " << op;
      } else {
        Packet out;
        const bool popped = q.dequeue(&out, SimTime::millis(op));
        ASSERT_EQ(popped, !reference.empty());
        if (popped) {
          ASSERT_EQ(out.seq, reference.front().seq);
          reference.pop_front();
        }
      }
      ASSERT_EQ(q.len(), reference.size());
    }
    EXPECT_EQ(q.counters().early_drops, 0u);
  }
}

TEST(DropTail, UnboundedBufferAdmitsEverything) {
  DropTailQdisc q(0);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(q.enqueue(data_packet(1, i), SimTime::zero()));
  }
  EXPECT_EQ(q.counters().overlimit_drops, 0u);
  EXPECT_EQ(q.len(), 10000u);
}

// --- factory + names ---

TEST(QdiscFactory, BuildsEveryKindWithMatchingName) {
  for (const char* spec : {"droptail", "pie", "fq_pie", "codel"}) {
    const auto q = make_queue_discipline(QdiscSpec::parse(spec), 10);
    EXPECT_STREQ(q->name(), spec);
  }
}

TEST(QdiscFactory, AppliesSpecParametersOverDefaults) {
  auto spec = QdiscSpec::parse("pie:30,45");
  spec.seed = 5;
  const auto q = make_queue_discipline(spec, 0);
  const auto* pie = dynamic_cast<const PieQdisc*>(q.get());
  ASSERT_NE(pie, nullptr);
  EXPECT_DOUBLE_EQ(pie->controller().params().target_s, 0.030);
  EXPECT_DOUBLE_EQ(pie->controller().params().tupdate_s, 0.045);
}

TEST(QdiscDropReason, NamesAreStable) {
  EXPECT_EQ(qdisc_drop_reason_name(QdiscDropReason::kOverlimit), "overlimit");
  EXPECT_EQ(qdisc_drop_reason_name(QdiscDropReason::kEarly), "early");
}

// --- Link integration ---

LinkConfig aqm_link_config(const char* spec, std::uint64_t seed,
                           double bandwidth_bps = 1.2e6,
                           std::size_t buffer = 0) {
  LinkConfig config{bandwidth_bps, SimTime::millis(5), buffer};
  config.qdisc = QdiscSpec::parse(spec);
  config.qdisc.seed = seed;
  return config;
}

// Schedules one `link.send` per packet at a fixed arrival rate.
void offer_load(Scheduler& sched, Link& link, int packets,
                SimTime spacing, FlowId flow = 1) {
  for (int i = 0; i < packets; ++i) {
    Packet p = data_packet(flow, i);
    p.app_tag = i;
    sched.post_at(spacing * i, [&link, p] { link.send(p); });
  }
}

TEST(LinkQdisc, DefaultLinkReportsDroptailAndNoEarlyDrops) {
  Scheduler sched;
  Link link(sched, LinkConfig{1.2e6, SimTime::millis(1), 2});
  link.set_receiver([](const Packet&) {});
  EXPECT_STREQ(link.qdisc_name(), "droptail");
  for (int i = 0; i < 5; ++i) link.send(data_packet(7, i));
  sched.run();
  EXPECT_EQ(link.total_drops(), 2u);
  EXPECT_EQ(link.qdisc_counters().overlimit_drops, 2u);
  EXPECT_EQ(link.qdisc_counters().early_drops, 0u);
}

TEST(LinkQdisc, PieLinkAccountsEveryDropExactlyOnce) {
  Scheduler sched;
  Link link(sched, aqm_link_config("pie", 11));
  EXPECT_STREQ(link.qdisc_name(), "pie");
  std::uint64_t delivered = 0;
  link.set_receiver([&](const Packet&) { ++delivered; });
  // 1.2 Mbps drains 100 pkts/s; offer 200 pkts/s for 20 s.
  offer_load(sched, link, 4000, SimTime::millis(5));
  sched.run();
  const auto& counters = link.qdisc_counters();
  EXPECT_GT(counters.early_drops, 0u);
  EXPECT_EQ(link.total_drops(), counters.early_drops + counters.overlimit_drops);
  EXPECT_EQ(delivered + link.total_drops(), link.total_arrivals());
  EXPECT_EQ(link.flow_counters(1).drops, link.total_drops());
}

TEST(LinkQdisc, CoDelLinkDropsAtDequeueAndStillBalances) {
  Scheduler sched;
  Link link(sched, aqm_link_config("codel", 0));
  std::uint64_t delivered = 0;
  link.set_receiver([&](const Packet&) { ++delivered; });
  offer_load(sched, link, 4000, SimTime::millis(5));
  sched.run();
  EXPECT_GT(link.qdisc_counters().early_drops, 0u);
  EXPECT_EQ(delivered + link.total_drops(), link.total_arrivals());
}

TEST(LinkQdisc, UnderloadedAqmLinkNeverDrops) {
  Scheduler sched;
  Link link(sched, aqm_link_config("pie", 3));
  std::uint64_t delivered = 0;
  link.set_receiver([&](const Packet&) { ++delivered; });
  // 10 pkts/s against a 100 pkts/s drain: the queue stays near-empty and
  // arrivals mostly ride the idle bypass.
  offer_load(sched, link, 100, SimTime::millis(100));
  sched.run();
  EXPECT_EQ(link.total_drops(), 0u);
  EXPECT_EQ(delivered, 100u);
}

TEST(LinkQdisc, RescaleFeedsNewDrainRateToController) {
  // Same offered load; the rescaled-down link must drop more, which only
  // happens if rescale() actually reaches the controller's rate estimate.
  auto drops_with_rescale = [](bool rescale) {
    Scheduler sched;
    Link link(sched, aqm_link_config("pie", 21));
    link.set_receiver([](const Packet&) {});
    if (rescale) link.rescale(0.25, 1.0);
    offer_load(sched, link, 2000, SimTime::millis(5));
    sched.run();
    return link.qdisc_counters().early_drops;
  };
  EXPECT_GT(drops_with_rescale(true), drops_with_rescale(false));
}

// A hub with only the flight recorder (or only metrics) on.
obs::ObsConfig flight_only() {
  obs::ObsConfig config;
  config.flight_recorder = true;
  config.output_dir = ::testing::TempDir();
  return config;
}

obs::ObsConfig metrics_only() {
  obs::ObsConfig config;
  config.enabled = true;
  config.output_dir = ::testing::TempDir();
  return config;
}

TEST(LinkQdisc, FlightRecorderTagsDropCauseOnAqmLinksOnly) {
  // PIE link: kLinkDrop events carry an explicit cause.
  Scheduler sched;
  obs::Hub hub(flight_only());
  Link link(sched, aqm_link_config("pie", 11));
  link.set_receiver([](const Packet&) {});
  link.bind(hub, "", 0);
  offer_load(sched, link, 4000, SimTime::millis(5));
  sched.run();
  std::uint64_t early_tagged = 0;
  for (const auto& event : hub.flight()->events()) {
    if (event.kind != obs::FlightEventKind::kLinkDrop) continue;
    EXPECT_NE(event.drop, obs::DropCause::kNone);
    if (event.drop == obs::DropCause::kEarly) ++early_tagged;
  }
  EXPECT_EQ(early_tagged, link.qdisc_counters().early_drops);

  // DropTail link: same overflow story, but every cause stays kNone so
  // legacy traces serialize byte-identically.
  Scheduler sched2;
  obs::Hub hub2(flight_only());
  Link droptail(sched2, LinkConfig{1.2e6, SimTime::millis(1), 2});
  droptail.set_receiver([](const Packet&) {});
  droptail.bind(hub2, "", 0);
  for (int i = 0; i < 5; ++i) {
    Packet p = data_packet(1, i);
    p.app_tag = i;
    droptail.send(p);
  }
  sched2.run();
  std::uint64_t droptail_drops = 0;
  for (const auto& event : hub2.flight()->events()) {
    if (event.kind != obs::FlightEventKind::kLinkDrop) continue;
    ++droptail_drops;
    EXPECT_EQ(event.drop, obs::DropCause::kNone);
  }
  EXPECT_EQ(droptail_drops, 2u);
}

TEST(LinkQdisc, EarlyDropMetricRegisteredOnlyForAqm) {
  Scheduler sched;
  obs::Hub hub(metrics_only());
  const obs::MetricsRegistry& registry = *hub.metrics();
  Link droptail(sched, LinkConfig{1.2e6, SimTime::millis(1), 2});
  droptail.bind(hub, "dt", 1);
  EXPECT_EQ(registry.find_counter("dt.early_drops"), nullptr);
  EXPECT_NE(registry.find_counter("dt.drops"), nullptr);

  Link pie(sched, aqm_link_config("pie", 1));
  pie.bind(hub, "pie", 1);
  EXPECT_NE(registry.find_counter("pie.early_drops"), nullptr);
}

}  // namespace
}  // namespace dmp
