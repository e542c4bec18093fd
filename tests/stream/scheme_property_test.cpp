// Scheme-level property sweeps: conservation (every generated packet is
// delivered exactly once) must hold for every source, policy, path
// asymmetry and seed; and the DMP split must track capacity ratios.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "net/topology.hpp"
#include "stream/dmp_server.hpp"
#include "stream/scheduler/path_scheduler.hpp"
#include "stream/scheduler/redundancy_filter.hpp"
#include "stream/trace.hpp"
#include "tcp/connection.hpp"

namespace dmp {
namespace {

// Source {live, stored} x policy {pull, static, redundant}.  The first
// three arms keep the parameter values of the scheme sweep they grew out
// of (dmp, static, stored), so those test names stay stable.
enum class Arm {
  kLivePull,
  kLiveStatic,
  kStoredPull,
  kStoredStatic,
  kLiveRedundant,
  kStoredRedundant,
};

struct ArmConfig {
  bool stored;
  const char* scheduler;
};

ArmConfig arm_config(Arm arm) {
  switch (arm) {
    case Arm::kLivePull: return {false, "pull"};
    case Arm::kLiveStatic: return {false, "static"};
    case Arm::kStoredPull: return {true, "pull"};
    case Arm::kStoredStatic: return {true, "static"};
    case Arm::kLiveRedundant: return {false, "redundant"};
    case Arm::kStoredRedundant: return {true, "redundant"};
  }
  return {false, "pull"};
}

struct Rig {
  Rig(double bw1, double bw2, std::uint64_t jitter_seed) {
    path1 = std::make_unique<DumbbellPath>(
        sched, BottleneckConfig{bw1, SimTime::millis(15), 40});
    path2 = std::make_unique<DumbbellPath>(
        sched, BottleneckConfig{bw2, SimTime::millis(25), 40});
    TcpConfig tcp;
    tcp.delayed_ack = false;
    tcp.send_overhead_s = 0.0003;
    tcp.jitter_seed = jitter_seed;
    c1 = make_connection(sched, 1, *path1, tcp);
    c2 = make_connection(sched, 2, *path2, tcp);
    trace = std::make_unique<StreamTrace>(80.0);
    c1.sink->set_deliver_callback(
        [this](std::int64_t tag, SimTime) { deliver(tag, 0); });
    c2.sink->set_deliver_callback(
        [this](std::int64_t tag, SimTime) { deliver(tag, 1); });
  }

  // Redundant policies deliver through the client's exactly-once filter,
  // as in a session; every other policy records straight into the trace.
  void deliver(std::int64_t tag, std::uint32_t path) {
    const auto record = [&](std::int64_t t) {
      trace->record(t, sched.now(), path);
    };
    if (filter) {
      filter->on_deliver(tag, record);
    } else {
      record(tag);
    }
  }

  Scheduler sched;
  std::unique_ptr<DumbbellPath> path1, path2;
  TcpConnection c1, c2;
  std::unique_ptr<StreamTrace> trace;
  std::unique_ptr<RedundancyFilter> filter;
};

class SchemeSweep
    : public ::testing::TestWithParam<std::tuple<Arm, double, int>> {};

TEST_P(SchemeSweep, ConservationExactlyOnce) {
  const auto [arm, bw2, seed] = GetParam();
  const ArmConfig config = arm_config(arm);
  Rig rig(2e6, bw2, static_cast<std::uint64_t>(seed));
  const auto spec = SchedulerSpec::parse(config.scheduler);
  if (spec.redundant()) rig.filter = std::make_unique<RedundancyFilter>();
  // 60 s at 80 pkt/s: live generation, or a 4800-packet stored file.
  DmpStreamingServer server(
      rig.sched, 80.0, {rig.c1.sender.get(), rig.c2.sender.get()},
      SimTime::zero(), SimTime::seconds(60), make_path_scheduler(spec, 2),
      config.stored);
  rig.sched.run_until(SimTime::seconds(400));

  const std::int64_t total = server.packets_generated();
  ASSERT_GT(total, 1000);
  if (config.stored) {
    ASSERT_EQ(total, 4800);
  }
  ASSERT_EQ(static_cast<std::int64_t>(rig.trace->arrivals()), total)
      << "scheme lost or duplicated packets";
  std::vector<bool> seen(static_cast<std::size_t>(total), false);
  for (const auto& e : rig.trace->entries()) {
    ASSERT_GE(e.packet_number, 0);
    ASSERT_LT(e.packet_number, total);
    ASSERT_FALSE(seen[static_cast<std::size_t>(e.packet_number)]);
    seen[static_cast<std::size_t>(e.packet_number)] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemeSweep,
    ::testing::Combine(::testing::Values(Arm::kLivePull, Arm::kLiveStatic,
                                         Arm::kStoredPull, Arm::kStoredStatic,
                                         Arm::kLiveRedundant,
                                         Arm::kStoredRedundant),
                       ::testing::Values(2e6, 0.7e6),
                       ::testing::Values(1, 2)));

class DmpSplitSweep : public ::testing::TestWithParam<double> {};

TEST_P(DmpSplitSweep, SplitTracksCapacityRatio) {
  const double bw_ratio = GetParam();
  Rig rig(3e6, 3e6 / bw_ratio, 9);
  std::vector<StreamSender*> senders{rig.c1.sender.get(), rig.c2.sender.get()};
  // Saturating load so the split reflects achievable throughputs.
  DmpStreamingServer server(rig.sched, 400.0, senders, SimTime::zero(),
                            SimTime::seconds(120));
  rig.sched.run_until(SimTime::seconds(240));
  const auto split = rig.trace->path_split(2);
  const double observed = split[0] / split[1];
  EXPECT_GT(observed, bw_ratio * 0.55) << "bw_ratio " << bw_ratio;
  EXPECT_LT(observed, bw_ratio * 1.9) << "bw_ratio " << bw_ratio;
}

INSTANTIATE_TEST_SUITE_P(CapacityRatios, DmpSplitSweep,
                         ::testing::Values(1.0, 1.5, 2.0, 3.0));

}  // namespace
}  // namespace dmp
