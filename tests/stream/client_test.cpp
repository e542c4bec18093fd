#include "stream/client.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "stream/dmp_server.hpp"
#include "tcp/connection.hpp"

namespace dmp {
namespace {

TEST(StreamClient, CollectsDeliveriesFromAttachedSinks) {
  Scheduler sched;
  DumbbellPath p1(sched, BottleneckConfig{2e6, SimTime::millis(10), 50});
  DumbbellPath p2(sched, BottleneckConfig{2e6, SimTime::millis(10), 50});
  TcpConfig tcp;
  auto c1 = make_connection(sched, 1, p1, tcp);
  auto c2 = make_connection(sched, 2, p2, tcp);

  StreamClient client(50.0, 2);
  client.attach(0, *c1.sink);
  client.attach(1, *c2.sink);

  DmpStreamingServer server(sched, 50.0,
                            {c1.sender.get(), c2.sender.get()},
                            SimTime::zero(), SimTime::seconds(20));
  sched.run_until(SimTime::seconds(60));

  EXPECT_EQ(static_cast<std::int64_t>(client.trace().arrivals()),
            server.packets_generated());
  EXPECT_EQ(client.num_paths(), 2u);
  const auto split = client.trace().path_split(2);
  EXPECT_NEAR(split[0] + split[1], 1.0, 1e-12);
}

TEST(StreamClient, RejectsOutOfRangePathIndex) {
  Scheduler sched;
  DumbbellPath p1(sched, BottleneckConfig{2e6, SimTime::millis(10), 50});
  auto c1 = make_connection(sched, 1, p1, TcpConfig{});
  StreamClient client(50.0, 1);
  EXPECT_THROW(client.attach(1, *c1.sink), std::out_of_range);
}

TEST(StreamClient, IgnoresNonStreamTags) {
  Scheduler sched;
  DumbbellPath p1(sched, BottleneckConfig{2e6, SimTime::millis(10), 50});
  auto c1 = make_connection(sched, 1, p1, TcpConfig{});
  StreamClient client(50.0, 1);
  client.attach(0, *c1.sink);
  // Background-style traffic carries tag -1: the client must not record it.
  for (int i = 0; i < 10; ++i) c1.sender->enqueue(-1);
  sched.run_until(SimTime::seconds(5));
  EXPECT_EQ(client.trace().arrivals(), 0u);
}

// deliver() is the core the simulated sinks and the socket client share:
// no DES, no sockets, just arrivals.  The same tag on a second path is a
// duplicate; an out-of-order tag is recorded where it lands.
TEST(StreamClient, DeliverDedupsAcrossPaths) {
  obs::ObsConfig config;
  config.enabled = true;
  config.output_dir = ::testing::TempDir();
  obs::Hub hub(config);
  StreamClient client(100.0, 2, SimTime::zero(), /*dedup=*/true);
  client.bind(hub, "client");

  client.deliver(0, SimTime::millis(5), 0);
  client.deliver(0, SimTime::millis(6), 1);  // replay on the other path
  client.deliver(2, SimTime::millis(30), 1);  // ahead of packet 1
  client.deliver(1, SimTime::millis(31), 0);

  const auto& entries = client.trace().entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].packet_number, 0);
  EXPECT_EQ(entries[0].path, 0u);
  EXPECT_EQ(entries[0].arrived, SimTime::millis(5));
  EXPECT_EQ(entries[1].packet_number, 2);
  EXPECT_EQ(entries[2].packet_number, 1);
  ASSERT_NE(client.filter(), nullptr);
  EXPECT_EQ(client.filter()->counters().duplicates_suppressed, 1u);
  const obs::MetricsRegistry& metrics = *hub.metrics();
  EXPECT_EQ(metrics.find_counter("client.path0.packets")->value(), 2u);
  EXPECT_EQ(metrics.find_counter("client.path1.packets")->value(), 1u);
  EXPECT_EQ(metrics.find_histogram("client.delay_s")->count(), 3u);
}

}  // namespace
}  // namespace dmp
