// Parameterized link/topology properties: work conservation, bounded
// queueing delay, and counter consistency across bandwidths and buffers.
#include <gtest/gtest.h>

#include <tuple>

#include "net/link.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace dmp {
namespace {

class LinkSweep
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(LinkSweep, CountersBalanceAndDelayIsBounded) {
  const auto [bandwidth, buffer] = GetParam();
  Scheduler sched;
  Link link(sched, LinkConfig{bandwidth, SimTime::millis(10), buffer});
  std::uint64_t received = 0;
  SimTime last_delivery = SimTime::zero();
  link.set_receiver([&](const Packet&) {
    ++received;
    last_delivery = sched.now();
  });

  // Poisson-ish arrivals at ~1.3x the service rate: guaranteed overload.
  Rng rng(7);
  const double service_pps = bandwidth / (kDataPacketBytes * 8.0);
  const double arrival_pps = 1.3 * service_pps;
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.exponential(1.0 / arrival_pps);
    sched.post_at(SimTime::seconds(t), [&link, i] {
      Packet p;
      p.flow = static_cast<FlowId>(i % 3);
      p.seq = i;
      p.size_bytes = kDataPacketBytes;
      link.send(p);
    });
  }
  sched.run();

  // Conservation: arrivals = deliveries + drops (+ nothing in flight).
  EXPECT_EQ(link.total_arrivals(), 2000u);
  EXPECT_EQ(link.total_arrivals(), link.total_delivered() + link.total_drops());
  EXPECT_EQ(received, link.total_delivered());
  EXPECT_GT(link.total_drops(), 0u);  // overloaded by construction
  // Per-flow counters add up to the totals.
  std::uint64_t arrivals = 0, drops = 0;
  for (FlowId f = 0; f < 3; ++f) {
    arrivals += link.flow_counters(f).arrivals;
    drops += link.flow_counters(f).drops;
  }
  EXPECT_EQ(arrivals, link.total_arrivals());
  EXPECT_EQ(drops, link.total_drops());

  // A bounded queue bounds delay: the last delivery happens at most
  // (buffer+1) service times + propagation after the last arrival.
  const double bound_s = t + (static_cast<double>(buffer) + 2.0) *
                                 (kDataPacketBytes * 8.0 / bandwidth) +
                         0.010 + 0.001;
  EXPECT_LE(last_delivery.to_seconds(), bound_s);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LinkSweep,
    ::testing::Combine(::testing::Values(1e6, 3.7e6, 10e6),
                       ::testing::Values(std::size_t{5}, std::size_t{50})));

class BottleneckConfigSweep : public ::testing::TestWithParam<int> {};

TEST_P(BottleneckConfigSweep, EveryTable1ConfigCarriesTraffic) {
  Scheduler sched;
  DumbbellPath path(sched, BottleneckConfig{3.7e6, SimTime::millis(1), 50});
  auto in = path.attach_source(1);
  int received = 0;
  path.register_sink(1, [&](const Packet&) { ++received; });
  const int n = GetParam();
  for (int i = 0; i < n; ++i) {
    sched.post_at(SimTime::millis(5 * i), [&in, i] {
      Packet p;
      p.flow = 1;
      p.seq = i;
      p.size_bytes = kDataPacketBytes;
      in(p);
    });
  }
  sched.run();
  EXPECT_EQ(received, n);  // paced below capacity: nothing drops
}

INSTANTIATE_TEST_SUITE_P(Sizes, BottleneckConfigSweep,
                         ::testing::Values(1, 10, 200));

}  // namespace
}  // namespace dmp
