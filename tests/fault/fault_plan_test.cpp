// Fault layer unit tests: spec parsing, link fault semantics, and the
// injector's arm-time validation + schedule-driven replay.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "net/link.hpp"

namespace dmp::fault {
namespace {

TEST(FaultPlan, EmptySpecYieldsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("   \t ").empty());
  EXPECT_TRUE(FaultPlan::parse(" ; ;; ").empty());
}

TEST(FaultPlan, ParsesEveryKind) {
  const auto plan = FaultPlan::parse(
      "3.0 link_down path1; 8.0 link_up path1; 1.5 burst_loss path0 7; "
      "2 rescale path0 bw=0.5 delay=2; 4 conn_reset path2");
  ASSERT_EQ(plan.size(), 5u);
  // Stably sorted by time.
  EXPECT_EQ(plan.events[0].kind, FaultKind::kBurstLoss);
  EXPECT_EQ(plan.events[0].count, 7u);
  EXPECT_EQ(plan.events[0].target, "path0");
  EXPECT_EQ(plan.events[1].kind, FaultKind::kRescale);
  EXPECT_DOUBLE_EQ(plan.events[1].bw_factor, 0.5);
  EXPECT_DOUBLE_EQ(plan.events[1].delay_factor, 2.0);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kLinkDown);
  EXPECT_DOUBLE_EQ(plan.events[2].t_s, 3.0);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kConnReset);
  EXPECT_EQ(plan.events[3].target, "path2");
  EXPECT_EQ(plan.events[4].kind, FaultKind::kLinkUp);
}

TEST(FaultPlan, SimultaneousEventsKeepSpecOrder) {
  const auto plan =
      FaultPlan::parse("5 link_up path0; 5 link_down path1; 5 link_up path2");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events[0].target, "path0");
  EXPECT_EQ(plan.events[1].target, "path1");
  EXPECT_EQ(plan.events[2].target, "path2");
}

TEST(FaultPlan, ToStringRoundTrips) {
  const std::string spec =
      "1.5 burst_loss path0 7; 2 rescale path0 bw=0.5 delay=2; "
      "3 link_down path1; 8 link_up path1";
  const auto plan = FaultPlan::parse(spec);
  const auto reparsed = FaultPlan::parse(plan.to_string());
  ASSERT_EQ(reparsed.size(), plan.size());
  EXPECT_EQ(reparsed.to_string(), plan.to_string());
}

TEST(FaultPlan, RejectsMalformedEvents) {
  EXPECT_THROW(FaultPlan::parse("3 explode path0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("-1 link_down path0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("x link_down path0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 link_down"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 link_down path0 extra"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 burst_loss path0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 burst_loss path0 0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 burst_loss path0 -2"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 rescale path0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 rescale path0 speed=2"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 rescale path0 bw=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 rescale path0 bw=nope"),
               std::invalid_argument);
}

TEST(FaultPlan, ErrorNamesTheOffendingEvent) {
  try {
    FaultPlan::parse("1 link_down path0; 3 explode path1");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("3 explode path1"),
              std::string::npos);
  }
}

TEST(FaultPlan, ParsePathIndex) {
  std::size_t index = 99;
  EXPECT_TRUE(parse_path_index("path0", &index));
  EXPECT_EQ(index, 0u);
  EXPECT_TRUE(parse_path_index("path12", &index));
  EXPECT_EQ(index, 12u);
  EXPECT_FALSE(parse_path_index("path", &index));
  EXPECT_FALSE(parse_path_index("path1x", &index));
  EXPECT_FALSE(parse_path_index("link0", &index));
  EXPECT_EQ(index, 12u) << "failed parses must not clobber the output";
}

// --- link fault semantics ---

Packet data_packet(FlowId flow, std::int64_t seq) {
  Packet p;
  p.flow = flow;
  p.seq = seq;
  p.size_bytes = kDataPacketBytes;
  return p;
}

TEST(LinkFaults, DownDropsArrivalsAndFreezesQueue) {
  Scheduler sched;
  // Undeclared faults: eager only (LazyLinkFaults.* cover lazy links).
  sched.keep_links_eager();
  // 1500 B at 1.2 Mbps = 10 ms serialization, 1 ms propagation.
  Link link(sched, LinkConfig{1.2e6, SimTime::millis(1), 0});
  std::vector<SimTime> deliveries;
  link.set_receiver([&](const Packet&) { deliveries.push_back(sched.now()); });

  // One on the wire, two queued, then the link goes down.
  for (int i = 0; i < 3; ++i) link.send(data_packet(1, i));
  link.set_down(true);
  // Arrivals while down are fault drops, not congestion drops.
  link.send(data_packet(1, 3));
  sched.run_until(SimTime::millis(100));
  // The in-flight transmission completed; the queue stayed frozen.
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], SimTime::millis(11));
  EXPECT_EQ(link.queue_length(), 2u);
  EXPECT_EQ(link.fault_drops(), 1u);
  EXPECT_EQ(link.total_drops(), 0u) << "fault drops are not drop-tail drops";

  // Raising the link resumes draining the frozen queue.
  link.set_down(false);
  sched.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[1], SimTime::millis(111));
  EXPECT_EQ(deliveries[2], SimTime::millis(121));
}

TEST(LinkFaults, BurstLossDropsExactlyTheNextN) {
  Scheduler sched;
  Link link(sched, LinkConfig{10e6, SimTime::millis(1), 0});
  std::vector<std::int64_t> seqs;
  link.set_receiver([&](const Packet& p) { seqs.push_back(p.seq); });
  link.declare_fault(SimTime::zero());  // a lazy link's hooks are declared
  link.drop_next(2);
  EXPECT_EQ(link.burst_remaining(), 2u);
  for (int i = 0; i < 5; ++i) link.send(data_packet(1, i));
  sched.run();
  ASSERT_EQ(seqs.size(), 3u);
  EXPECT_EQ(seqs[0], 2);
  EXPECT_EQ(link.fault_drops(), 2u);
  EXPECT_EQ(link.burst_remaining(), 0u);
}

TEST(LinkFaults, RescaleIsRelativeToBaseAndDoesNotCompound) {
  Scheduler sched;
  // Undeclared faults: eager only (LazyLinkFaults.* cover lazy links).
  sched.keep_links_eager();
  Link link(sched, LinkConfig{1.2e6, SimTime::millis(10), 0});
  std::vector<SimTime> deliveries;
  link.set_receiver([&](const Packet&) { deliveries.push_back(sched.now()); });

  // Halve bandwidth twice: factors are relative to the constructed config,
  // so the second call is a no-op, not a quarter.
  link.rescale(0.5, 1.0);
  link.rescale(0.5, 1.0);
  link.send(data_packet(1, 0));
  sched.run();
  // 1500 B at 0.6 Mbps = 20 ms serialization + 10 ms propagation.
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], SimTime::millis(30));

  // Restoring factor 1 restores the constructed timing exactly.
  link.rescale(1.0, 1.0);
  deliveries.clear();
  link.send(data_packet(1, 1));
  sched.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0] - SimTime::millis(30), SimTime::millis(20));

  EXPECT_THROW(link.rescale(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(link.rescale(1.0, -2.0), std::invalid_argument);
}

// --- injector replay ---

struct RecordedCall {
  double t_s;
  std::string what;
};

TEST(FaultInjector, ReplaysThePlanAtEpochRelativeTimes) {
  Scheduler sched;
  auto plan = FaultPlan::parse(
      "1 link_down path0; 2 burst_loss path1 5; 3 rescale path1 bw=0.5; "
      "4 link_up path0");
  FaultInjector injector(sched, std::move(plan), SimTime::seconds(10.0));

  std::vector<RecordedCall> calls;
  const auto now_s = [&] { return sched.now().to_seconds(); };
  PathFaultTarget p0;
  p0.set_down = [&](bool down) {
    calls.push_back({now_s(), down ? "down0" : "up0"});
  };
  PathFaultTarget p1;
  p1.set_down = [&](bool) { calls.push_back({now_s(), "down1"}); };
  p1.burst_loss = [&](std::uint64_t n) {
    calls.push_back({now_s(), "burst1x" + std::to_string(n)});
  };
  p1.rescale = [&](double bw, double) {
    calls.push_back({now_s(), "rescale1@" + std::to_string(bw)});
  };
  injector.add_path("path0", 0, std::move(p0));
  injector.add_path("path1", 1, std::move(p1));
  injector.arm();
  EXPECT_EQ(injector.events_armed(), 4u);
  EXPECT_EQ(injector.events_fired(), 0u);

  sched.run();
  EXPECT_EQ(injector.events_fired(), 4u);
  ASSERT_EQ(calls.size(), 4u);
  EXPECT_EQ(calls[0].what, "down0");
  EXPECT_DOUBLE_EQ(calls[0].t_s, 11.0);  // epoch 10 + event time 1
  EXPECT_EQ(calls[1].what, "burst1x5");
  EXPECT_DOUBLE_EQ(calls[1].t_s, 12.0);
  EXPECT_EQ(calls[2].what, "rescale1@0.500000");
  EXPECT_EQ(calls[3].what, "up0");
  EXPECT_DOUBLE_EQ(calls[3].t_s, 14.0);
}

TEST(FaultInjector, EmptyPlanSchedulesNothing) {
  Scheduler sched;
  FaultInjector injector(sched, FaultPlan{}, SimTime::zero());
  injector.arm();
  EXPECT_EQ(injector.events_armed(), 0u);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(FaultInjector, ArmRejectsUnknownTargets) {
  Scheduler sched;
  FaultInjector injector(sched, FaultPlan::parse("1 link_down path7"),
                         SimTime::zero());
  PathFaultTarget target;
  target.set_down = [](bool) {};
  injector.add_path("path0", 0, std::move(target));
  EXPECT_THROW(injector.arm(), std::invalid_argument);
  EXPECT_EQ(sched.pending_events(), 0u)
      << "a rejected plan must schedule nothing";
}

TEST(FaultInjector, ArmRejectsMissingCapability) {
  Scheduler sched;
  FaultInjector injector(sched, FaultPlan::parse("1 burst_loss path0 3"),
                         SimTime::zero());
  PathFaultTarget target;
  target.set_down = [](bool) {};  // no burst_loss capability
  injector.add_path("path0", 0, std::move(target));
  EXPECT_THROW(injector.arm(), std::invalid_argument);
}

TEST(FaultInjector, ArmRejectsConnResetInSimulation) {
  Scheduler sched;
  FaultInjector injector(sched, FaultPlan::parse("1 conn_reset path0"),
                         SimTime::zero());
  PathFaultTarget target;
  target.set_down = [](bool) {};
  injector.add_path("path0", 0, std::move(target));
  EXPECT_THROW(injector.arm(), std::invalid_argument);
}

TEST(FaultInjector, LifecycleMisuseThrows) {
  Scheduler sched;
  FaultInjector injector(sched, FaultPlan{}, SimTime::zero());
  injector.arm();
  EXPECT_THROW(injector.arm(), std::logic_error);
  PathFaultTarget target;
  target.set_down = [](bool) {};
  EXPECT_THROW(injector.add_path("path0", 0, std::move(target)),
               std::logic_error);
}

}  // namespace
}  // namespace dmp::fault
