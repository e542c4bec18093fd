#include "tcp/reno_sender.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "tcp/sink.hpp"

namespace dmp {
namespace {

// Directly-wired sender <-> sink with a programmable one-way delay and a
// per-packet drop predicate, for deterministic TCP unit tests.
class Wire {
 private:
  Scheduler& sched_;  // declared first: members below capture it at init
  SimTime one_way_;

 public:
  Wire(Scheduler& sched, TcpConfig config, SimTime one_way = SimTime::millis(50))
      : sched_(sched),
        one_way_(one_way),
        sender(sched, 1, config,
               [this](const Packet& p) { forward_data(p); }),
        sink(sched, 1, config, [this](const Packet& p) { forward_ack(p); }) {}

  // Packets whose (seq, transmission_count) matches are dropped.
  std::function<bool(const Packet&)> drop_data = [](const Packet&) {
    return false;
  };

  std::vector<std::int64_t> delivered;

  void wire_delivery() {
    sink.set_deliver_callback(
        [this](std::int64_t tag, SimTime) { delivered.push_back(tag); });
  }

  RenoSender sender;
  TcpSink sink;

 private:
  void forward_data(const Packet& p) {
    if (drop_data(p)) return;
    sched_.post_after(one_way_, [this, p] { sink.on_data(p); });
  }
  void forward_ack(const Packet& p) {
    sched_.post_after(one_way_, [this, p] { sender.on_ack(p); });
  }
};

// Feeds `total` app packets, refilling the send buffer as ACKs free space.
void feed(Wire& wire, int total) {
  auto state = std::make_shared<int>(0);
  auto pump = [&wire, state, total] {
    while (*state < total && wire.sender.enqueue(*state)) ++*state;
  };
  wire.sender.set_space_callback(pump);
  pump();
}

TcpConfig small_config() {
  TcpConfig c;
  c.initial_cwnd = 2.0;
  c.initial_ssthresh = 16.0;
  c.max_cwnd = 32.0;
  c.send_buffer_packets = 64;
  return c;
}

TEST(RenoSender, DeliversAllDataInOrderOnCleanPath) {
  Scheduler sched;
  Wire wire(sched, small_config());
  wire.wire_delivery();
  feed(wire, 100);
  sched.run_until(SimTime::seconds(60));
  ASSERT_EQ(wire.delivered.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(wire.delivered[static_cast<size_t>(i)], i);
  EXPECT_EQ(wire.sender.stats().retransmissions, 0u);
  EXPECT_EQ(wire.sender.stats().timeouts, 0u);
}

TEST(RenoSender, RespectsInitialWindow) {
  Scheduler sched;
  auto config = small_config();
  config.initial_cwnd = 2.0;
  Wire wire(sched, config);
  wire.wire_delivery();
  for (int i = 0; i < 20; ++i) wire.sender.enqueue(i);
  // Before any ACK returns, exactly cwnd packets may be in flight.
  sched.run_until(SimTime::millis(40));  // less than one RTT
  EXPECT_EQ(wire.sender.snd_nxt(), 2);
}

TEST(RenoSender, SlowStartGrowsWindowMultiplicatively) {
  Scheduler sched;
  Wire wire(sched, small_config());
  wire.wire_delivery();
  feed(wire, 500);
  const double cwnd0 = wire.sender.cwnd();
  sched.run_until(SimTime::millis(450));  // ~4 RTTs (RTT = 100 ms)
  // With delayed ACKs slow start grows ~1.5x per RTT: 2 -> ~10 after 4 RTTs.
  EXPECT_GT(wire.sender.cwnd(), cwnd0 * 3);
  EXPECT_LE(wire.sender.cwnd(), small_config().initial_ssthresh);
}

TEST(RenoSender, CongestionAvoidanceIsLinear) {
  Scheduler sched;
  auto config = small_config();
  config.initial_ssthresh = 4.0;  // leave slow start quickly
  Wire wire(sched, config);
  wire.wire_delivery();
  feed(wire, 2000);
  sched.run_until(SimTime::seconds(1.0));
  const double w1 = wire.sender.cwnd();
  sched.run_until(SimTime::seconds(2.0));
  const double w2 = wire.sender.cwnd();
  // ~10 RTTs elapse; CA adds at most 1 per RTT (about 0.5 with delayed ACKs).
  EXPECT_GT(w2, w1 + 2.0);
  EXPECT_LT(w2, w1 + 11.0);
}

TEST(RenoSender, FastRetransmitRecoversSingleLoss) {
  Scheduler sched;
  Wire wire(sched, small_config());
  wire.wire_delivery();
  bool dropped = false;
  wire.drop_data = [&](const Packet& p) {
    if (p.seq == 20 && !dropped) {
      dropped = true;
      return true;
    }
    return false;
  };
  feed(wire, 200);
  sched.run_until(SimTime::seconds(60));
  ASSERT_EQ(wire.delivered.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(wire.delivered[static_cast<size_t>(i)], i);
  EXPECT_EQ(wire.sender.stats().fast_retransmits, 1u);
  EXPECT_EQ(wire.sender.stats().timeouts, 0u);
  EXPECT_EQ(wire.sender.stats().retransmissions, 1u);
}

TEST(RenoSender, FastRetransmitHalvesWindow) {
  Scheduler sched;
  auto config = small_config();
  config.initial_ssthresh = 4.0;
  Wire wire(sched, config);
  wire.wire_delivery();
  bool dropped = false;
  double cwnd_before_loss = 0.0;
  wire.drop_data = [&](const Packet& p) {
    if (p.seq == 60 && !dropped) {
      dropped = true;
      cwnd_before_loss = wire.sender.cwnd();
      return true;
    }
    return false;
  };
  feed(wire, 500);
  sched.run_until(SimTime::seconds(60));
  EXPECT_EQ(wire.sender.stats().fast_retransmits, 1u);
  // After recovery the window continues from about half the loss window.
  EXPECT_LT(wire.sender.ssthresh(), cwnd_before_loss);
  EXPECT_GE(wire.sender.ssthresh(), std::floor(cwnd_before_loss / 2.0) - 1.0);
}

TEST(RenoSender, TimeoutRecoversWhenWindowTooSmallForDupacks) {
  Scheduler sched;
  auto config = small_config();
  config.initial_cwnd = 1.0;
  Wire wire(sched, config);
  wire.wire_delivery();
  bool dropped = false;
  wire.drop_data = [&](const Packet& p) {
    // Drop the very first transmission: no dupacks possible -> RTO.
    if (p.seq == 0 && !dropped) {
      dropped = true;
      return true;
    }
    return false;
  };
  for (int i = 0; i < 10; ++i) wire.sender.enqueue(i);
  sched.run_until(SimTime::seconds(30));
  ASSERT_EQ(wire.delivered.size(), 10u);
  EXPECT_GE(wire.sender.stats().timeouts, 1u);
  EXPECT_EQ(wire.sender.stats().fast_retransmits, 0u);
}

TEST(RenoSender, ExponentialBackoffOnRepeatedTimeouts) {
  Scheduler sched;
  Wire wire(sched, small_config());
  wire.wire_delivery();
  int drops = 0;
  wire.drop_data = [&](const Packet& p) {
    if (p.seq == 0 && drops < 3) {
      ++drops;
      return true;
    }
    return false;
  };
  wire.sender.enqueue(0);
  sched.run_until(SimTime::seconds(120));
  ASSERT_EQ(wire.delivered.size(), 1u);
  EXPECT_EQ(wire.sender.stats().timeouts, 3u);
  // Only the first expiry of a backoff series is counted for the TO metric.
  EXPECT_EQ(wire.sender.stats().rto_at_timeout_count, 1u);
}

TEST(RenoSender, GoBackNAfterTimeoutResendsWindow) {
  Scheduler sched;
  auto config = small_config();
  Wire wire(sched, config);
  wire.wire_delivery();
  // Drop a burst (first transmission of seqs 10..14): heavy loss -> timeout.
  std::set<std::int64_t> burst{10, 11, 12, 13, 14};
  std::set<std::int64_t> dropped_once;
  wire.drop_data = [&](const Packet& p) {
    if (burst.count(p.seq) != 0 && dropped_once.insert(p.seq).second) {
      return true;
    }
    return false;
  };
  for (int i = 0; i < 60; ++i) wire.sender.enqueue(i);
  sched.run_until(SimTime::seconds(60));
  ASSERT_EQ(wire.delivered.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(wire.delivered[static_cast<size_t>(i)], i);
}

TEST(RenoSender, SendBufferBlocksAndFreesSpace) {
  Scheduler sched;
  auto config = small_config();
  config.send_buffer_packets = 8;
  Wire wire(sched, config);
  wire.wire_delivery();
  int fills = 0;
  for (int i = 0; i < 100; ++i) {
    if (wire.sender.enqueue(i)) ++fills;
  }
  EXPECT_EQ(fills, 8);  // buffer full after 8
  EXPECT_EQ(wire.sender.space(), 0u);

  int space_events = 0;
  wire.sender.set_space_callback([&] { ++space_events; });
  sched.run_until(SimTime::seconds(10));
  EXPECT_GT(space_events, 0);
  EXPECT_EQ(wire.sender.space(), 8u);  // everything acked
}

TEST(RenoSender, RttEstimateMatchesPathRtt) {
  Scheduler sched;
  Wire wire(sched, small_config(), SimTime::millis(75));
  wire.wire_delivery();
  feed(wire, 300);
  sched.run_until(SimTime::seconds(60));
  // One-way 75 ms each direction; delayed ACK adds up to 100 ms on the
  // first segment of a pair, but most samples see ~150 ms.
  EXPECT_GT(wire.sender.stats().mean_rtt_s(), 0.145);
  EXPECT_LT(wire.sender.stats().mean_rtt_s(), 0.260);
  // One segment is timed per window (single-timer Karn sampling), so a few
  // hundred packets yield on the order of tens of samples.
  EXPECT_GE(wire.sender.stats().rtt_sample_count, 10u);
}

TEST(RenoSender, CwndNeverExceedsMax) {
  Scheduler sched;
  auto config = small_config();
  config.max_cwnd = 10.0;
  Wire wire(sched, config);
  wire.wire_delivery();
  feed(wire, 3000);
  for (int t = 1; t <= 20; ++t) {
    sched.run_until(SimTime::seconds(t));
    EXPECT_LE(wire.sender.cwnd(), 10.0);
  }
}

TEST(RenoSender, IdleRestartResetsCwnd) {
  Scheduler sched;
  Wire wire(sched, small_config());
  wire.wire_delivery();
  feed(wire, 200);
  sched.run_until(SimTime::seconds(30));
  EXPECT_GT(wire.sender.cwnd(), small_config().initial_cwnd);
  wire.sender.idle_restart();
  EXPECT_LE(wire.sender.cwnd(), small_config().initial_cwnd);
}

}  // namespace
}  // namespace dmp
