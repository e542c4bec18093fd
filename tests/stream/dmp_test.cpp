// DMP-streaming scheme behaviour on controlled two-path networks.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "net/topology.hpp"
#include "stream/dmp_server.hpp"
#include "stream/scheduler/path_scheduler.hpp"
#include "stream/trace.hpp"
#include "tcp/connection.hpp"

namespace dmp {
namespace {

// The Section-7.4 static baseline: the DMP server under a `static` policy.
std::unique_ptr<PathScheduler> static_policy(const std::string& spec) {
  return make_path_scheduler(SchedulerSpec::parse(spec), 2);
}

struct TwoPathRig {
  TwoPathRig(double bw1_bps, double bw2_bps, double mu_pps,
             double duration_s = 100.0) {
    path1 = std::make_unique<DumbbellPath>(
        sched, BottleneckConfig{bw1_bps, SimTime::millis(20), 50});
    path2 = std::make_unique<DumbbellPath>(
        sched, BottleneckConfig{bw2_bps, SimTime::millis(20), 50});
    TcpConfig tcp;
    tcp.send_buffer_packets = 32;
    c1 = make_connection(sched, 1, *path1, tcp);
    c2 = make_connection(sched, 2, *path2, tcp);
    trace = std::make_unique<StreamTrace>(mu_pps);
    c1.sink->set_deliver_callback([this](std::int64_t tag, SimTime) {
      if (tag >= 0) trace->record(tag, sched.now(), 0);
    });
    c2.sink->set_deliver_callback([this](std::int64_t tag, SimTime) {
      if (tag >= 0) trace->record(tag, sched.now(), 1);
    });
    server = std::make_unique<DmpStreamingServer>(
        sched, mu_pps,
        std::vector<StreamSender*>{c1.sender.get(), c2.sender.get()},
        SimTime::zero(), SimTime::seconds(duration_s));
  }

  Scheduler sched;
  std::unique_ptr<DumbbellPath> path1, path2;
  TcpConnection c1, c2;
  std::unique_ptr<StreamTrace> trace;
  std::unique_ptr<DmpStreamingServer> server;
};

TEST(DmpStreaming, DeliversEveryPacketExactlyOnce) {
  TwoPathRig rig(2e6, 2e6, 100.0, 60.0);
  rig.sched.run_until(SimTime::seconds(120));
  const auto generated = rig.server->packets_generated();
  ASSERT_GT(generated, 5000);
  EXPECT_EQ(static_cast<std::int64_t>(rig.trace->arrivals()), generated);

  // Exactly-once: packet numbers 0..generated-1 each appear once.
  std::vector<bool> seen(static_cast<std::size_t>(generated), false);
  for (const auto& e : rig.trace->entries()) {
    ASSERT_GE(e.packet_number, 0);
    ASSERT_LT(e.packet_number, generated);
    ASSERT_FALSE(seen[static_cast<std::size_t>(e.packet_number)])
        << "duplicate " << e.packet_number;
    seen[static_cast<std::size_t>(e.packet_number)] = true;
  }
}

TEST(DmpStreaming, SplitsEvenlyOnHomogeneousPaths) {
  TwoPathRig rig(2e6, 2e6, 150.0, 100.0);
  rig.sched.run_until(SimTime::seconds(200));
  const auto split = rig.trace->path_split(2);
  EXPECT_NEAR(split[0], 0.5, 0.06);
  EXPECT_NEAR(split[1], 0.5, 0.06);
}

TEST(DmpStreaming, ShareFollowsPathBandwidth) {
  // Path 1 has 3x the bandwidth of path 2 and the stream saturates both:
  // DMP must carry roughly 3x the packets on path 1 with no explicit
  // bandwidth probing (the paper's implicit-inference property).
  TwoPathRig rig(3e6, 1e6, 300.0, 100.0);
  rig.sched.run_until(SimTime::seconds(200));
  const auto split = rig.trace->path_split(2);
  ASSERT_GT(rig.trace->arrivals(), 1000u);
  const double ratio = split[0] / split[1];
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.5);
}

TEST(DmpStreaming, UndersubscribedStreamHasNoLatePackets) {
  // Aggregate capacity ~4 Mbps vs. video 0.6 Mbps: everything is punctual
  // with a modest startup delay.
  TwoPathRig rig(2e6, 2e6, 50.0, 60.0);
  rig.sched.run_until(SimTime::seconds(120));
  const auto generated = rig.server->packets_generated();
  EXPECT_DOUBLE_EQ(rig.trace->late_fraction_playback_order(2.0, generated), 0.0);
}

TEST(DmpStreaming, OversubscribedStreamIsMostlyLate) {
  // Video rate 3.6 Mbps over aggregate ~2 Mbps achievable: the buffer can
  // never catch up and late packets dominate.
  TwoPathRig rig(1e6, 1e6, 300.0, 60.0);
  rig.sched.run_until(SimTime::seconds(200));
  const auto generated = rig.server->packets_generated();
  EXPECT_GT(rig.trace->late_fraction_playback_order(4.0, generated), 0.4);
}

TEST(DmpStreaming, ServerQueueStaysBoundedWhenPathsKeepUp) {
  TwoPathRig rig(2e6, 2e6, 50.0, 60.0);
  rig.sched.run_until(SimTime::seconds(120));
  // With TCP draining faster than generation, the shared queue cannot
  // accumulate beyond a few packets at a time.
  EXPECT_LT(rig.server->max_queue_length(), 16u);
}

TEST(DmpStreaming, SinglePathDegeneratesGracefully) {
  // K = 1 is single-path TCP streaming; the scheme must work unchanged.
  Scheduler sched;
  DumbbellPath path(sched, BottleneckConfig{2e6, SimTime::millis(20), 50});
  TcpConfig tcp;
  auto conn = make_connection(sched, 1, path, tcp);
  StreamTrace trace(50.0);
  conn.sink->set_deliver_callback([&](std::int64_t tag, SimTime) {
    if (tag >= 0) trace.record(tag, sched.now(), 0);
  });
  DmpStreamingServer server(sched, 50.0, {conn.sender.get()}, SimTime::zero(),
                            SimTime::seconds(30));
  sched.run_until(SimTime::seconds(60));
  EXPECT_EQ(static_cast<std::int64_t>(trace.arrivals()),
            server.packets_generated());
}

TEST(StaticStreaming, RoundRobinSplitIsExactlyEven) {
  Scheduler sched;
  DumbbellPath p1(sched, BottleneckConfig{2e6, SimTime::millis(20), 50});
  DumbbellPath p2(sched, BottleneckConfig{2e6, SimTime::millis(20), 50});
  TcpConfig tcp;
  auto c1 = make_connection(sched, 1, p1, tcp);
  auto c2 = make_connection(sched, 2, p2, tcp);
  StreamTrace trace(100.0);
  c1.sink->set_deliver_callback([&](std::int64_t tag, SimTime) {
    trace.record(tag, sched.now(), 0);
  });
  c2.sink->set_deliver_callback([&](std::int64_t tag, SimTime) {
    trace.record(tag, sched.now(), 1);
  });
  DmpStreamingServer server(sched, 100.0, {c1.sender.get(), c2.sender.get()},
                            SimTime::zero(), SimTime::seconds(50),
                            static_policy("static"));
  sched.run_until(SimTime::seconds(100));
  const auto split = trace.path_split(2);
  EXPECT_NEAR(split[0], 0.5, 0.01);
  EXPECT_NEAR(split[1], 0.5, 0.01);
  // Odd/even assignment: consecutive packets alternate paths.
  std::int64_t odd_on_path1 = 0, odd_total = 0;
  for (const auto& e : trace.entries()) {
    if (e.packet_number % 2 == 1) {
      ++odd_total;
      odd_on_path1 += (e.path == 1);
    }
  }
  EXPECT_EQ(odd_on_path1, odd_total);
}

TEST(StaticStreaming, WeightedSplitFollowsWeights) {
  Scheduler sched;
  DumbbellPath p1(sched, BottleneckConfig{4e6, SimTime::millis(20), 50});
  DumbbellPath p2(sched, BottleneckConfig{4e6, SimTime::millis(20), 50});
  TcpConfig tcp;
  auto c1 = make_connection(sched, 1, p1, tcp);
  auto c2 = make_connection(sched, 2, p2, tcp);
  StreamTrace trace(100.0);
  c1.sink->set_deliver_callback([&](std::int64_t tag, SimTime) {
    trace.record(tag, sched.now(), 0);
  });
  c2.sink->set_deliver_callback([&](std::int64_t tag, SimTime) {
    trace.record(tag, sched.now(), 1);
  });
  DmpStreamingServer server(sched, 100.0, {c1.sender.get(), c2.sender.get()},
                            SimTime::zero(), SimTime::seconds(60),
                            static_policy("static:3,1"));
  sched.run_until(SimTime::seconds(120));
  const auto split = trace.path_split(2);
  EXPECT_NEAR(split[0], 0.75, 0.01);
  EXPECT_NEAR(split[1], 0.25, 0.01);
}

TEST(StaticStreaming, RejectsBadWeights) {
  Scheduler sched;
  DumbbellPath p1(sched, BottleneckConfig{4e6, SimTime::millis(20), 50});
  TcpConfig tcp;
  auto c1 = make_connection(sched, 1, p1, tcp);
  auto c2 = make_connection(sched, 2, p1, tcp);
  EXPECT_THROW(DmpStreamingServer(sched, 50.0,
                                  {c1.sender.get(), c2.sender.get()},
                                  SimTime::zero(), SimTime::seconds(10),
                                  static_policy("static:1")),
               std::invalid_argument);
  EXPECT_THROW(DmpStreamingServer(sched, 50.0,
                                  {c1.sender.get(), c2.sender.get()},
                                  SimTime::zero(), SimTime::seconds(10),
                                  static_policy("static:0,0")),
               std::invalid_argument);
}

// A rate whose period is not a positive int64 of ns fails loudly, before
// the core converts it (and before it posts its first event).
TEST(DmpStreaming, RejectsMalformedRate) {
  Scheduler sched;
  DumbbellPath p1(sched, BottleneckConfig{4e6, SimTime::millis(20), 50});
  auto c1 = make_connection(sched, 1, p1, TcpConfig{});
  for (const double mu : {0.0, std::nan(""), 1e-13}) {
    EXPECT_THROW(DmpStreamingServer(sched, mu, {c1.sender.get()},
                                    SimTime::zero(), SimTime::seconds(10)),
                 std::invalid_argument)
        << mu;
    EXPECT_THROW(StreamTrace{mu}, std::invalid_argument) << mu;
  }
  EXPECT_EQ(sched.next_event_time(), SimTime::max());
}

TEST(StaticStreaming, CongestedPathStrandsItsShare) {
  // Path 2 is far too slow for half the stream.  Static streaming cannot
  // reroute, so lateness concentrates on path-2 packets, while DMP on the
  // same paths stays comfortable.
  Scheduler sched;
  DumbbellPath p1(sched, BottleneckConfig{4e6, SimTime::millis(20), 50});
  DumbbellPath p2(sched, BottleneckConfig{0.3e6, SimTime::millis(20), 50});
  TcpConfig tcp;
  auto c1 = make_connection(sched, 1, p1, tcp);
  auto c2 = make_connection(sched, 2, p2, tcp);
  StreamTrace trace(100.0);  // 1.2 Mbps video
  c1.sink->set_deliver_callback([&](std::int64_t tag, SimTime) {
    trace.record(tag, sched.now(), 0);
  });
  c2.sink->set_deliver_callback([&](std::int64_t tag, SimTime) {
    trace.record(tag, sched.now(), 1);
  });
  DmpStreamingServer server(sched, 100.0, {c1.sender.get(), c2.sender.get()},
                            SimTime::zero(), SimTime::seconds(60),
                            static_policy("static"));
  sched.run_until(SimTime::seconds(120));
  const auto generated = server.packets_generated();
  // Half the stream needs 0.6 Mbps but path 2 offers ~0.3 Mbps.
  EXPECT_GT(trace.late_fraction_playback_order(5.0, generated), 0.2);
}

}  // namespace
}  // namespace dmp
