// TCP over the dumbbell topology: end-to-end behaviour under real queueing
// losses, and agreement of the achieved throughput with first-principles
// expectations.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/ftp_source.hpp"
#include "net/topology.hpp"
#include "tcp/connection.hpp"

namespace dmp {
namespace {

TEST(TcpIntegration, SingleFlowSaturatesBottleneck) {
  Scheduler sched;
  // 2 Mbps bottleneck, ample buffer: a lone backlogged flow should reach
  // near-full utilization.
  DumbbellPath path(sched, BottleneckConfig{2e6, SimTime::millis(20), 100});
  auto conn = make_connection(sched, 1, path, TcpConfig{});
  std::int64_t delivered = 0;
  conn.sink->set_deliver_callback([&](std::int64_t, SimTime) { ++delivered; });
  FtpSource ftp(*conn.sender);

  const double duration_s = 50.0;
  sched.run_until(SimTime::seconds(duration_s));

  const double goodput_bps =
      static_cast<double>(delivered) * kDataPacketBytes * 8 / duration_s;
  EXPECT_GT(goodput_bps, 0.85 * 2e6);
  EXPECT_LE(goodput_bps, 2e6 * 1.01);
}

TEST(TcpIntegration, ReliabilityUnderQueueOverflow) {
  Scheduler sched;
  // Tiny buffer forces frequent drops; TCP must still deliver every app
  // packet exactly once, in order.
  DumbbellPath path(sched, BottleneckConfig{1e6, SimTime::millis(10), 5});
  auto conn = make_connection(sched, 1, path, TcpConfig{});
  std::vector<std::int64_t> delivered;
  conn.sink->set_deliver_callback(
      [&](std::int64_t tag, SimTime) { delivered.push_back(tag); });

  const int total = 2000;
  int enqueued = 0;
  conn.sender->set_space_callback([&] {
    while (enqueued < total && conn.sender->enqueue(enqueued)) ++enqueued;
  });
  while (enqueued < total && conn.sender->enqueue(enqueued)) ++enqueued;

  sched.run_until(SimTime::seconds(120));

  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    ASSERT_EQ(delivered[static_cast<std::size_t>(i)], i) << "at index " << i;
  }
  // Losses genuinely happened.
  EXPECT_GT(path.bottleneck().flow_counters(1).drops, 0u);
  EXPECT_GT(conn.sender->stats().retransmissions, 0u);
}

TEST(TcpIntegration, TwoFlowsShareBottleneckMeaningfully) {
  // Two identical deterministic Reno flows on one drop-tail queue can
  // phase-lock (the classic lockout effect), so exact fairness is not
  // expected; both flows must nevertheless obtain a substantial share.
  Scheduler sched;
  DumbbellPath path(sched, BottleneckConfig{4e6, SimTime::millis(20), 50});
  TcpConfig tcp;
  tcp.send_overhead_s = 0.001;  // break phase-locking, as ns-2 overhead_ does
  auto c1 = make_connection(sched, 1, path, tcp);
  auto c2 = make_connection(sched, 2, path, tcp);
  std::int64_t d1 = 0, d2 = 0;
  c1.sink->set_deliver_callback([&](std::int64_t, SimTime) { ++d1; });
  c2.sink->set_deliver_callback([&](std::int64_t, SimTime) { ++d2; });
  FtpSource f1(*c1.sender);
  // Desynchronize the second flow's start.
  std::unique_ptr<FtpSource> f2;
  sched.post_at(SimTime::millis(733), [&] {
    f2 = std::make_unique<FtpSource>(*c2.sender);
  });

  sched.run_until(SimTime::seconds(200));

  ASSERT_GT(d1, 0);
  ASSERT_GT(d2, 0);
  const double share1 =
      static_cast<double>(d1) / static_cast<double>(d1 + d2);
  EXPECT_GT(share1, 0.2);
  EXPECT_LT(share1, 0.8);
}

TEST(TcpIntegration, MeasuredRttIncludesQueueing) {
  Scheduler sched;
  DumbbellPath path(sched, BottleneckConfig{3.7e6, SimTime::millis(40), 50});
  auto conn = make_connection(sched, 1, path, TcpConfig{});
  conn.sink->set_deliver_callback([](std::int64_t, SimTime) {});
  FtpSource ftp(*conn.sender);
  sched.run_until(SimTime::seconds(60));

  const double base = path.base_rtt_seconds();
  const double measured = conn.sender->stats().mean_rtt_s();
  EXPECT_GT(measured, base);  // self-induced queueing delay
  // Full queue adds 50 * 1500 * 8 / 3.7 Mbps = 162 ms at most.
  EXPECT_LT(measured, base + 0.162 + 0.110);  // + delack allowance
}

TEST(TcpIntegration, NormalizedTimeoutIsPlausible) {
  Scheduler sched;
  DumbbellPath path(sched, BottleneckConfig{3.7e6, SimTime::millis(40), 50});
  auto conn = make_connection(sched, 1, path, TcpConfig{});
  conn.sink->set_deliver_callback([](std::int64_t, SimTime) {});
  FtpSource ftp(*conn.sender);
  sched.run_until(SimTime::seconds(120));

  const double to = conn.sender->stats().normalized_timeout();
  // The paper's Table-2 TO values span 1.6..3.3.
  EXPECT_GT(to, 1.0);
  EXPECT_LT(to, 6.0);
}

}  // namespace
}  // namespace dmp
