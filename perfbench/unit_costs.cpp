#include "unit_costs.hpp"

#include <chrono>
#include <deque>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "sim/scheduler.hpp"
#include "stats.hpp"
#include "stream/scheduler/path_scheduler.hpp"
#include "stream/session.hpp"
#include "stream/trace.hpp"
#include "tcp/reno_sender.hpp"
#include "tcp/sink.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using dmp::Packet;
using dmp::PacketKind;
using dmp::SimTime;
using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

// Hold model over a port (the devirtualised dispatch link and sender
// events use): `depth` events in flight; each executed event posts one
// successor a uniform 0-2 ms later until `ops` successors have been posted.
struct HoldModel {
  dmp::Scheduler sched;
  dmp::Rng rng;
  std::uint64_t left;
  std::uint32_t port = 0;

  HoldModel(std::uint64_t seed, std::uint64_t ops) : rng(seed), left(ops) {
    port = sched.register_port(&HoldModel::fire, this);
  }
  void post() {
    sched.post_port_after(
        SimTime::nanos(static_cast<std::int64_t>(rng.next_u64() % 2'000'000)),
        port);
  }
  static void fire(void* ctx) {
    auto* self = static_cast<HoldModel*>(ctx);
    if (self->left == 0) return;
    --self->left;
    self->post();
  }
};

double churn_trial(std::size_t depth, std::uint64_t seed, std::uint64_t ops) {
  HoldModel hold(seed, ops);
  for (std::size_t i = 0; i < depth; ++i) hold.post();
  const auto start = Clock::now();
  const std::uint64_t executed = hold.sched.run();
  return ns_since(start) / static_cast<double>(executed);
}

// A Table-1-like bottleneck (3.7 Mb/s, 40 ms, 50-packet droptail) fed by a
// closed loop of 40 packets: ~12 on the wire, ~28 queued, no drops.  Each
// delivery sends the next packet, so the cost covers send, queueing,
// transmission and delivery events.
double forward_trial(std::uint64_t packets) {
  dmp::Scheduler sched;
  dmp::LinkConfig config;
  config.bandwidth_bps = 3.7e6;
  config.prop_delay = SimTime::millis(40);
  config.buffer_packets = 50;
  dmp::Link link(sched, config);
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  Packet p;
  p.size_bytes = dmp::kDataPacketBytes;
  link.set_receiver([&](const Packet& q) {
    ++delivered;
    if (sent < packets) {
      Packet next = q;
      next.seq = static_cast<std::int64_t>(sent++);
      link.send(next);
    }
  });
  const auto start = Clock::now();
  for (int i = 0; i < 40 && sent < packets; ++i) {
    p.seq = static_cast<std::int64_t>(sent++);
    link.send(p);
  }
  sched.run();
  return ns_since(start) / static_cast<double>(delivered);
}

// A video-flow sender (per-packet ACKs, no send jitter) acknowledged
// in order, one window per batch: each on_ack opens the window and sends
// the next segment, the ACK-clocked steady state.  The clock advances 5 ms
// between batches (outside the timed region) so RTT samples are real and
// superseded RTO timers drain.
double ack_trial(std::uint64_t acks) {
  dmp::Scheduler sched;
  std::vector<Packet> wire;
  dmp::RenoSender sender(sched, 0, dmp::default_video_tcp(),
                         [&wire](const Packet& p) { wire.push_back(p); });
  std::int64_t next_tag = 0;
  const auto fill = [&] {
    while (sender.space() > 0) sender.enqueue(next_tag++);
  };
  sender.set_space_callback(fill);
  fill();
  std::vector<Packet> batch;
  double total_ns = 0.0;
  std::uint64_t done = 0;
  while (done < acks && !wire.empty()) {
    batch.swap(wire);
    wire.clear();
    sched.run_until(sched.now() + SimTime::millis(5));
    const auto start = Clock::now();
    for (const Packet& data : batch) {
      Packet ack;
      ack.kind = PacketKind::kAck;
      ack.seq = data.seq + 1;
      ack.size_bytes = dmp::kAckPacketBytes;
      sender.on_ack(ack);
    }
    total_ns += ns_since(start);
    done += batch.size();
  }
  return done == 0 ? 0.0 : total_ns / static_cast<double>(done);
}

// In-order segments with every 32nd pair swapped, so the reorder buffer
// and the gap-filling path run too.
double sink_trial(std::uint64_t segments) {
  dmp::Scheduler sched;
  std::uint64_t acks = 0;
  std::uint64_t delivered = 0;
  dmp::TcpSink sink(sched, 0, dmp::default_video_tcp(),
                    [&acks](const Packet&) { ++acks; });
  sink.set_deliver_callback(
      [&delivered](std::int64_t, SimTime) { ++delivered; });
  std::vector<Packet> packets(segments);
  for (std::uint64_t i = 0; i < segments; ++i) {
    packets[i].seq = static_cast<std::int64_t>(i);
    packets[i].app_tag = static_cast<std::int64_t>(i);
    packets[i].size_bytes = dmp::kDataPacketBytes;
  }
  for (std::uint64_t i = 0; i + 1 < segments; i += 32) {
    std::swap(packets[i], packets[i + 1]);
  }
  const auto start = Clock::now();
  for (const Packet& p : packets) sink.on_data(p);
  const double ns = ns_since(start);
  return delivered == segments ? ns / static_cast<double>(segments) : 0.0;
}

// The server's drain loop over two paths: one packet generated per round,
// each path offered one free slot, pick() called until it declines.  Path
// 0 lags (old unacked head), so redundant policies find copy candidates.
double pick_trial(const std::string& spec, std::uint64_t rounds) {
  auto policy = dmp::make_path_scheduler(dmp::SchedulerSpec::parse(spec), 2);
  std::deque<std::int64_t> queue;
  std::vector<dmp::SchedPathState> paths(2);
  dmp::SchedDecision decision;
  std::uint64_t picks = 0;
  const auto start = Clock::now();
  for (std::int64_t next = 0; next < static_cast<std::int64_t>(rounds);
       ++next) {
    queue.push_back(next);
    policy->on_generate(next);
    policy->on_offer();
    for (std::size_t k = 0; k < paths.size(); ++k) {
      paths[k].space = 1;
      paths[k].srtt_s = 0.05 * static_cast<double>(k + 1);
      paths[k].oldest_unacked = next - (k == 0 ? 40 : 4);
      policy->on_window_open(k);
    }
    for (;;) {
      ++picks;
      if (!policy->pick(paths, queue, &decision)) break;
      if (decision.kind == dmp::SchedDecision::Kind::kPull) {
        queue.erase(queue.begin() +
                    static_cast<std::ptrdiff_t>(decision.queue_pos));
      }
      if (paths[decision.path].space > 0) --paths[decision.path].space;
    }
  }
  return ns_since(start) / static_cast<double>(picks);
}

// Appends to a trace that grows as a session's does (no reserve).
double record_trial(std::uint64_t records) {
  dmp::StreamTrace trace(50.0);
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < records; ++i) {
    trace.record(static_cast<std::int64_t>(i),
                 SimTime::nanos(static_cast<std::int64_t>(i) * 1000),
                 static_cast<std::uint32_t>(i & 1));
  }
  const double ns = ns_since(start);
  return trace.arrivals() == records ? ns / static_cast<double>(records)
                                     : 0.0;
}

template <class Trial>
double median_of(int trials, Trial trial) {
  std::vector<double> samples;
  for (int t = 0; t < trials; ++t) samples.push_back(trial(t));
  return median(samples);
}

}  // namespace

UnitCosts measure_unit_costs(std::size_t pending_depth, std::uint64_t seed,
                             int trials) {
  UnitCosts c;
  const std::size_t depth = pending_depth == 0 ? 1 : pending_depth;
  c.churn_ns = median_of(trials, [&](int t) {
    return churn_trial(depth, seed + static_cast<std::uint64_t>(t), 1'000'000);
  });
  c.churn_shallow_ns = median_of(trials, [&](int t) {
    return churn_trial(2, seed + static_cast<std::uint64_t>(t), 1'000'000);
  });
  c.forward_ns = median_of(trials, [](int) { return forward_trial(200'000); });
  c.ack_ns = median_of(trials, [](int) { return ack_trial(300'000); });
  c.sink_ns = median_of(trials, [](int) { return sink_trial(300'000); });
  c.pick_pull_ns =
      median_of(trials, [](int) { return pick_trial("pull", 300'000); });
  c.pick_redundant_ns =
      median_of(trials, [](int) { return pick_trial("redundant", 300'000); });
  c.record_ns = median_of(trials, [](int) { return record_trial(1'000'000); });
  return c;
}

}  // namespace perfbench
