#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/demux.hpp"

namespace dmp {
namespace {

TEST(DumbbellPath, ForwardDeliveryReachesRegisteredSink) {
  Scheduler sched;
  DumbbellPath path(sched, BottleneckConfig{3.7e6, SimTime::millis(40), 50});
  auto inject = path.attach_source(1);
  int received = 0;
  SimTime arrival = SimTime::zero();
  path.register_sink(1, [&](const Packet&) {
    ++received;
    arrival = sched.now();
  });

  Packet p;
  p.flow = 1;
  p.size_bytes = kDataPacketBytes;
  inject(p);
  sched.run();

  EXPECT_EQ(received, 1);
  // 10 + 40 + 10 ms propagation, plus three serializations
  // (100M, 3.7M, 100M): 0.12 + 3.243 + 0.12 ms.
  const double expected_s = 0.060 + 1500.0 * 8 / 100e6 * 2 + 1500.0 * 8 / 3.7e6;
  EXPECT_NEAR(arrival.to_seconds(), expected_s, 1e-6);
}

TEST(DumbbellPath, DemuxSeparatesFlows) {
  Scheduler sched;
  DumbbellPath path(sched, BottleneckConfig{10e6, SimTime::millis(1), 50});
  auto in1 = path.attach_source(1);
  auto in2 = path.attach_source(2);
  int got1 = 0, got2 = 0;
  path.register_sink(1, [&](const Packet&) { ++got1; });
  path.register_sink(2, [&](const Packet&) { ++got2; });

  Packet p;
  p.size_bytes = 100;
  p.flow = 1;
  in1(p);
  in1(p);
  p.flow = 2;
  in2(p);
  sched.run();

  EXPECT_EQ(got1, 2);
  EXPECT_EQ(got2, 1);
}

TEST(DumbbellPath, UnregisteredFlowIsDiscardedSilently) {
  Scheduler sched;
  DumbbellPath path(sched, BottleneckConfig{10e6, SimTime::millis(1), 50});
  auto in = path.attach_source(9);
  Packet p;
  p.flow = 9;
  p.size_bytes = 100;
  in(p);
  EXPECT_NO_THROW(sched.run());
}

TEST(DumbbellPath, ReverseDirectionCarriesAcks) {
  Scheduler sched;
  DumbbellPath path(sched, BottleneckConfig{3.7e6, SimTime::millis(40), 50});
  auto rev_in = path.attach_reverse_source(1);
  SimTime arrival = SimTime::zero();
  path.register_reverse_sink(1, [&](const Packet&) { arrival = sched.now(); });

  Packet ack;
  ack.flow = 1;
  ack.kind = PacketKind::kAck;
  ack.size_bytes = kAckPacketBytes;
  rev_in(ack);
  sched.run();

  // Reverse path has the same propagation (60 ms) but access-speed links,
  // so the ACK sees essentially no queueing/serialization delay.
  EXPECT_NEAR(arrival.to_seconds(), 0.060, 1e-4);
  EXPECT_GT(arrival.to_seconds(), 0.060);
}

TEST(DumbbellPath, BottleneckDropsAreObservable) {
  Scheduler sched;
  DumbbellPath path(sched, BottleneckConfig{1e6, SimTime::millis(1), 3});
  auto in = path.attach_source(5);
  path.register_sink(5, [](const Packet&) {});
  Packet p;
  p.flow = 5;
  p.size_bytes = kDataPacketBytes;
  for (int i = 0; i < 20; ++i) in(p);
  sched.run();
  const auto counters = path.bottleneck().flow_counters(5);
  EXPECT_EQ(counters.arrivals, 20u);
  EXPECT_GT(counters.drops, 0u);
  // Delivered = arrivals - drops.
  EXPECT_EQ(path.bottleneck().total_delivered(),
            counters.arrivals - counters.drops);
}

TEST(DumbbellPath, BaseRttMatchesHandComputation) {
  Scheduler sched;
  DumbbellPath path(sched, BottleneckConfig{3.7e6, SimTime::millis(40), 50});
  // Round-trip propagation 2 * 60 ms dominates; serialization adds ~3.5 ms.
  EXPECT_GT(path.base_rtt_seconds(), 0.120);
  EXPECT_LT(path.base_rtt_seconds(), 0.130);
}

// The demux's index grows through several doublings; flow ids are spread
// (consecutive runs and large strides) so probes collide and wrap.
TEST(FlowDemux, ThousandsOfFlowsReplaceOnRegisterAndDiscardUnknown) {
  constexpr int kFlows = 3000;
  const auto id = [](int i) {
    return static_cast<FlowId>(i % 2 == 0 ? i : 1'000'000 + i * 4099);
  };
  FlowDemux demux;
  std::vector<int> got(kFlows, -1);  // the version of the handler reached
  const auto handler = [&got](int i, int version) {
    return [&got, i, version](const Packet&) { got[i] = version; };
  };
  for (int i = 0; i < kFlows; ++i) demux.register_flow(id(i), handler(i, 0));
  // Every third flow re-registers: its new handler replaces the old one.
  for (int i = 0; i < kFlows; i += 3) demux.register_flow(id(i), handler(i, 1));
  Packet p;
  for (int i = 0; i < kFlows; ++i) {
    p.flow = id(i);
    demux.deliver(p);
    EXPECT_EQ(got[i], i % 3 == 0 ? 1 : 0) << i;
    EXPECT_EQ(demux.ahead(id(i)), nullptr) << i;
  }
  // Unknown flows are discarded: no handler runs.
  std::fill(got.begin(), got.end(), -1);
  for (int i = kFlows; i < 2 * kFlows; ++i) {
    p.flow = id(i);
    demux.deliver(p);
    EXPECT_EQ(demux.ahead(id(i)), nullptr) << i;
  }
  for (int i = 0; i < kFlows; ++i) EXPECT_EQ(got[i], -1) << i;
}

// A receiver registered to take deliveries ahead is asked once.
TEST(FlowDemux, AsksAnAheadReceiverOnce) {
  struct Receiver final : AheadReceiver {
    bool answer = true;
    int asked = 0;
    bool takes_ahead() override {
      ++asked;
      return answer;
    }
    SimTime take(const Packet&, SimTime, std::uint64_t, SimTime) override {
      return SimTime::max();
    }
    bool waits(std::uint64_t) const override { return false; }
    void expire() override {}
  };
  Receiver yes;
  Receiver no;
  no.answer = false;
  FlowDemux demux;
  demux.register_flow(1, [](const Packet&) {}, &yes);
  demux.register_flow(2, [](const Packet&) {}, &no);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(demux.ahead(1), &yes);
    EXPECT_EQ(demux.ahead(2), nullptr);
  }
  EXPECT_EQ(yes.asked, 1);
  EXPECT_EQ(no.asked, 1);
}

}  // namespace
}  // namespace dmp
