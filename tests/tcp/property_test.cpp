// Property tests: TCP reliability and state invariants under randomized
// loss processes (data and ACK loss), swept with parameterized gtest.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "tcp/reno_sender.hpp"
#include "tcp/sink.hpp"
#include "util/rng.hpp"

namespace dmp {
namespace {

struct LossyWorld {
  LossyWorld(double data_loss, double ack_loss, std::uint64_t seed,
             TcpConfig config = {})
      : rng(seed),
        sender(sched, 1, config,
               [this, data_loss](const Packet& p) {
                 if (rng.chance(data_loss)) return;
                 const SimTime jitter = SimTime::micros(
                     static_cast<std::int64_t>(rng.uniform(0, 2000)));
                 sched.post_after(SimTime::millis(40) + jitter,
                                  [this, p] { sink.on_data(p); });
               }),
        sink(sched, 1, config, [this, ack_loss](const Packet& a) {
          if (rng.chance(ack_loss)) return;
          sched.post_after(SimTime::millis(40),
                           [this, a] { sender.on_ack(a); });
        }) {
    sink.set_deliver_callback(
        [this](std::int64_t tag, SimTime) { delivered.push_back(tag); });
  }

  Scheduler sched;
  Rng rng;
  RenoSender sender;
  TcpSink sink;
  std::vector<std::int64_t> delivered;
};

class TcpLossSweep
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(TcpLossSweep, ReliableInOrderExactlyOnce) {
  const auto [data_loss, ack_loss, seed] = GetParam();
  LossyWorld world(data_loss, ack_loss, static_cast<std::uint64_t>(seed));

  const int total = 600;
  int enqueued = 0;
  auto pump = [&] {
    while (enqueued < total && world.sender.enqueue(enqueued)) ++enqueued;
  };
  world.sender.set_space_callback(pump);
  pump();

  // Step the simulation, asserting state invariants as it runs.
  int checks = 0;
  while (world.sched.step(SimTime::seconds(3600))) {
    if (++checks % 64 == 0) {
      ASSERT_GE(world.sender.cwnd(), 1.0);
      ASSERT_GE(world.sender.ssthresh(), 2.0);
      ASSERT_LE(world.sender.snd_una(), world.sender.snd_nxt());
      ASSERT_LE(world.sender.snd_nxt(), world.sender.snd_max());
      ASSERT_LE(world.sender.buffered(),
                world.sender.config().send_buffer_packets);
    }
  }

  ASSERT_EQ(world.delivered.size(), static_cast<std::size_t>(total))
      << "data_loss=" << data_loss << " ack_loss=" << ack_loss;
  for (int i = 0; i < total; ++i) {
    ASSERT_EQ(world.delivered[static_cast<std::size_t>(i)], i);
  }
  // Terminal state: everything acknowledged, buffer drained.
  EXPECT_EQ(world.sender.snd_una(), total);
  EXPECT_EQ(world.sender.buffered(), 0u);
  EXPECT_EQ(world.sink.rcv_nxt(), total);
}

INSTANTIATE_TEST_SUITE_P(
    LossGrid, TcpLossSweep,
    ::testing::Combine(::testing::Values(0.0, 0.01, 0.05, 0.15, 0.3),
                       ::testing::Values(0.0, 0.05),
                       ::testing::Values(1, 2, 3)));

class TcpBufferSweep : public ::testing::TestWithParam<int> {};

TEST_P(TcpBufferSweep, SendBufferNeverOverflowsAndAlwaysDrains) {
  TcpConfig config;
  config.send_buffer_packets = static_cast<std::size_t>(GetParam());
  LossyWorld world(0.08, 0.0, 99, config);
  const int total = 300;
  int enqueued = 0;
  auto pump = [&] {
    while (enqueued < total && world.sender.enqueue(enqueued)) ++enqueued;
  };
  world.sender.set_space_callback(pump);
  pump();
  world.sched.run_until(SimTime::seconds(3600));
  ASSERT_EQ(world.delivered.size(), static_cast<std::size_t>(total));
  EXPECT_EQ(world.sender.buffered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BufferSizes, TcpBufferSweep,
                         ::testing::Values(1, 2, 4, 8, 32, 128));

class TcpDelackSweep : public ::testing::TestWithParam<bool> {};

TEST_P(TcpDelackSweep, DelackAndPerPacketAcksBothDeliverReliably) {
  TcpConfig config;
  config.delayed_ack = GetParam();
  LossyWorld world(0.05, 0.02, 7, config);
  const int total = 400;
  int enqueued = 0;
  auto pump = [&] {
    while (enqueued < total && world.sender.enqueue(enqueued)) ++enqueued;
  };
  world.sender.set_space_callback(pump);
  pump();
  world.sched.run_until(SimTime::seconds(3600));
  ASSERT_EQ(world.delivered.size(), static_cast<std::size_t>(total));
}

INSTANTIATE_TEST_SUITE_P(AckPolicies, TcpDelackSweep, ::testing::Bool());

TEST(TcpExtremes, SurvivesFiftyPercentLoss) {
  LossyWorld world(0.5, 0.1, 5);
  const int total = 60;
  int enqueued = 0;
  auto pump = [&] {
    while (enqueued < total && world.sender.enqueue(enqueued)) ++enqueued;
  };
  world.sender.set_space_callback(pump);
  pump();
  world.sched.run_until(SimTime::seconds(36000));
  ASSERT_EQ(world.delivered.size(), static_cast<std::size_t>(total));
  EXPECT_GT(world.sender.stats().timeouts, 0u);
}

TEST(TcpExtremes, ZeroDataIsANoOp) {
  LossyWorld world(0.1, 0.1, 6);
  world.sched.run_until(SimTime::seconds(10));
  EXPECT_TRUE(world.delivered.empty());
  EXPECT_EQ(world.sender.stats().data_packets_sent, 0u);
  EXPECT_EQ(world.sender.stats().timeouts, 0u);
}

}  // namespace
}  // namespace dmp
