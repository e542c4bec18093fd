// Fault x AQM composition: injected faults (link_down / burst_loss /
// rescale) must stay disjoint from the queue discipline's congestion
// accounting on every discipline, faulted AQM sessions must keep the
// experiment engine's determinism contract (thread-count invariant
// aggregates), and an explicit qdisc="droptail" must be byte-identical to
// the default configuration.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/plan.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "net/link.hpp"
#include "net/qdisc/queue_discipline.hpp"
#include "sim/scheduler.hpp"
#include "stream/session.hpp"

namespace dmp {
namespace {

// 1.2 Mbps = 100 data packets/s drain; buffer 0 = unbounded so every
// discard in these tests is attributable to exactly one cause.
LinkConfig aqm_config(const std::string& spec, std::uint64_t seed) {
  LinkConfig config;
  config.bandwidth_bps = 1.2e6;
  config.prop_delay = SimTime::millis(5);
  config.buffer_packets = 0;
  config.qdisc = QdiscSpec::parse(spec);
  config.qdisc.seed = seed;
  return config;
}

void offer(Scheduler& sched, Link& link, int packets, SimTime spacing) {
  for (int i = 0; i < packets; ++i) {
    Packet p;
    p.flow = 1;
    p.seq = i;
    p.size_bytes = kDataPacketBytes;
    sched.post_at(spacing * i, [&link, p] { link.send(p); });
  }
}

TEST(FaultAqm, LinkDownDropsBypassTheQdiscEntirely) {
  Scheduler sched;
  Link link(sched, aqm_config("pie", 7));
  std::uint64_t delivered = 0;
  link.set_receiver([&](const Packet&) { ++delivered; });
  link.set_down(true);
  offer(sched, link, 50, SimTime::millis(1));
  sched.run();

  EXPECT_EQ(link.fault_drops(), 50u);
  EXPECT_EQ(link.total_arrivals(), 50u);
  // The discipline never saw a packet: no congestion drops of any reason.
  EXPECT_EQ(link.total_drops(), 0u);
  EXPECT_EQ(link.qdisc_counters().early_drops, 0u);
  EXPECT_EQ(link.qdisc_counters().overlimit_drops, 0u);
  EXPECT_EQ(link.queue_length(), 0u);
  EXPECT_EQ(delivered, 0u);
}

TEST(FaultAqm, BurstLossConsumesArrivalsBeforeTheQdisc) {
  Scheduler sched;
  Link link(sched, aqm_config("codel", 0));
  std::uint64_t delivered = 0;
  link.set_receiver([&](const Packet&) { ++delivered; });
  link.drop_next(5);
  // 100 ms spacing = exactly the drain rate: the 95 surviving packets all
  // sojourn ~0, so CoDel never drops either.
  offer(sched, link, 100, SimTime::millis(100));
  sched.run();

  EXPECT_EQ(link.fault_drops(), 5u);
  EXPECT_EQ(link.burst_remaining(), 0u);
  EXPECT_EQ(link.total_drops(), 0u);
  EXPECT_EQ(delivered, 95u);
}

TEST(FaultAqm, FaultAndCongestionDropsStayDisjointUnderOverload) {
  // PIE under 4x overload with a mid-run outage window: every offered
  // packet is accounted exactly once across {delivered, fault drop,
  // qdisc drop, still queued}, and both drop classes are non-zero.
  Scheduler sched;
  Link link(sched, aqm_config("pie", 21));
  std::uint64_t delivered = 0;
  link.set_receiver([&](const Packet&) { ++delivered; });
  constexpr int kPackets = 4000;
  offer(sched, link, kPackets, SimTime::millis(2));  // 500 pps vs 100 pps
  sched.post_at(SimTime::millis(2000), [&link] { link.set_down(true); });
  sched.post_at(SimTime::millis(3000), [&link] { link.set_down(false); });
  sched.run();

  EXPECT_EQ(link.total_arrivals(), static_cast<std::uint64_t>(kPackets));
  EXPECT_GT(link.fault_drops(), 0u);
  EXPECT_GT(link.qdisc_counters().early_drops, 0u);
  // Unbounded buffer: every congestion drop is an AQM early drop.
  EXPECT_EQ(link.total_drops(), link.qdisc_counters().early_drops);
  EXPECT_EQ(delivered + link.total_drops() + link.fault_drops() +
                link.queue_length(),
            static_cast<std::uint64_t>(kPackets));
}

TEST(FaultAqm, RescaleComposesWithEveryDiscipline) {
  // Halving the bandwidth mid-run must not break the accounting identity
  // on any discipline (PIE re-reads the drain rate; CoDel and droptail
  // only see the slower transmitter).
  for (const char* spec : {"droptail", "pie", "fq_pie", "codel"}) {
    Scheduler sched;
    Link link(sched, aqm_config(spec, 3));
    std::uint64_t delivered = 0;
    link.set_receiver([&](const Packet&) { ++delivered; });
    offer(sched, link, 600, SimTime::millis(8));  // 125 pps vs 100 pps
    sched.post_at(SimTime::millis(1200),
                  [&link] { link.rescale(0.5, 1.0); });
    sched.run();
    EXPECT_EQ(delivered + link.total_drops() + link.queue_length(), 600u)
        << spec;
    EXPECT_EQ(link.fault_drops(), 0u) << spec;
  }
}

// Table-1 config 2 carries a heavy background flood, so a short DMP
// session over PIE bottlenecks reliably sees controller drops.
SessionConfig pie_session(const std::string& faults) {
  SessionConfig config;
  config.path_configs = {table1_config(2), table1_config(2)};
  config.num_flows = 2;
  config.mu_pps = 50.0;
  config.duration_s = 20.0;
  config.warmup_s = 5.0;
  config.drain_s = 10.0;
  config.seed = 909;
  config.qdisc = "pie";
  config.faults = faults;
  return config;
}

TEST(FaultAqm, FaultedPieSessionFiresFaultsAndCountsEarlyDrops) {
  const auto result =
      run_session(pie_session("8 link_down path0; 11 link_up path0"));
  EXPECT_EQ(result.fault_events_fired, 2u);
  ASSERT_EQ(result.paths.size(), 2u);
  // Table-1 config 2's flood keeps PIE's controller busy on both paths;
  // the outage must not zero the survivor's controller either.
  std::uint64_t early = 0;
  for (const auto& path : result.paths) early += path.aqm_early_drops;
  EXPECT_GT(early, 0u);
  EXPECT_GT(result.trace.entries().size(), 0u);
}

TEST(FaultAqm, EveryQdiscRunsUnderFaultsWithExactAccounting) {
  for (const char* spec : {"droptail", "pie", "fq_pie", "codel"}) {
    auto config = pie_session("6 burst_loss path1 40");
    config.qdisc = spec;
    const auto result = run_session(config);
    EXPECT_EQ(result.fault_events_fired, 1u) << spec;
    ASSERT_EQ(result.paths.size(), 2u) << spec;
    std::uint64_t early = 0;
    for (const auto& path : result.paths) early += path.aqm_early_drops;
    if (std::string(spec) == "droptail") {
      EXPECT_EQ(early, 0u) << "droptail must never record AQM drops";
    } else {
      EXPECT_GT(early, 0u) << spec;
    }
    EXPECT_GT(result.trace.entries().size(), 0u) << spec;
  }
}

TEST(FaultAqm, AggregateReportThreadInvariantUnderPieWithFaults) {
  exp::ExperimentPlan plan;
  plan.name = "aqm_fault_determinism";
  plan.seed = 404;
  plan.replications = 2;
  plan.settings.push_back(
      {"pie_blackhole", pie_session("8 link_down path0; 11 link_up path0")});
  auto codel = pie_session("");
  codel.qdisc = "codel";
  plan.settings.push_back({"codel_clean", codel});

  const auto serial = exp::ExperimentRunner(1).run(plan);
  const auto parallel = exp::ExperimentRunner(8).run(plan);
  EXPECT_EQ(serial.aggregate_json(), parallel.aggregate_json());
  ASSERT_EQ(serial.settings.size(), 2u);
  EXPECT_FALSE(serial.settings[0].metrics.empty());
}

TEST(FaultAqm, ExplicitDroptailIsByteIdenticalToDefault) {
  auto config = pie_session("");
  config.qdisc = "droptail";
  const auto explicit_dt = run_session(config);
  SessionConfig defaulted = config;
  defaulted.qdisc = SessionConfig{}.qdisc;  // whatever the default spells
  const auto implicit_dt = run_session(defaulted);

  EXPECT_EQ(explicit_dt.events_executed, implicit_dt.events_executed);
  ASSERT_EQ(explicit_dt.trace.entries().size(),
            implicit_dt.trace.entries().size());
  ASSERT_GT(explicit_dt.trace.entries().size(), 0u);
  for (std::size_t i = 0; i < explicit_dt.trace.entries().size(); ++i) {
    EXPECT_EQ(explicit_dt.trace.entries()[i].arrived.ns(),
              implicit_dt.trace.entries()[i].arrived.ns());
    EXPECT_EQ(explicit_dt.trace.entries()[i].path,
              implicit_dt.trace.entries()[i].path);
  }
  ASSERT_EQ(explicit_dt.paths.size(), implicit_dt.paths.size());
  for (std::size_t k = 0; k < explicit_dt.paths.size(); ++k) {
    EXPECT_EQ(explicit_dt.paths[k].loss_rate, implicit_dt.paths[k].loss_rate);
    EXPECT_EQ(explicit_dt.paths[k].aqm_early_drops, 0u);
  }
}

}  // namespace
}  // namespace dmp
