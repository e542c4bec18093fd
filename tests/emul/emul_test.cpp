#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "emul/experiment.hpp"
#include "emul/wan_path.hpp"
#include "tcp/connection.hpp"

namespace dmp::emul {
namespace {

TEST(WanPath, DeliversPacketsWithBaseDelay) {
  Scheduler sched;
  WanPathConfig config;
  config.loss_good = 1e-9;  // effectively lossless
  config.loss_bad = 1e-9;
  config.jitter_mean_s = 1e-9;
  WanPath path(sched, config, Rng(1));
  auto inject = path.attach_source(1);
  SimTime arrival = SimTime::zero();
  path.register_sink(1, [&](const Packet&) { arrival = sched.now(); });
  Packet p;
  p.flow = 1;
  p.size_bytes = kDataPacketBytes;
  inject(p);
  sched.run_until(SimTime::seconds(1));
  // base OWD 30 ms + serialization 6 ms at 2 Mbps.
  EXPECT_NEAR(arrival.to_seconds(), 0.036, 0.002);
}

TEST(WanPath, LossRateTracksConfiguredProcess) {
  Scheduler sched;
  WanPathConfig config;
  config.loss_good = 0.02;
  config.loss_bad = 0.02;  // degenerate: constant loss
  WanPath path(sched, config, Rng(2));
  auto inject = path.attach_source(1);
  path.register_sink(1, [](const Packet&) {});
  Packet p;
  p.flow = 1;
  p.size_bytes = 100;
  int sent = 20000;
  for (int i = 0; i < sent; ++i) {
    inject(p);
    sched.run_until(sched.now() + SimTime::millis(2));  // avoid buffer drops
  }
  sched.run();
  const auto counters = path.flow_counters(1);
  EXPECT_EQ(counters.arrivals, static_cast<std::uint64_t>(sent));
  const double measured = static_cast<double>(counters.drops) /
                          static_cast<double>(counters.arrivals);
  EXPECT_NEAR(measured, 0.02, 0.005);
}

TEST(WanPath, GilbertElliottStateVisitsBothRegimes) {
  Scheduler sched;
  WanPathConfig config;
  config.mean_good_s = 5.0;
  config.mean_bad_s = 5.0;
  WanPath path(sched, config, Rng(3));
  sched.post_at(SimTime::seconds(500), [] {});
  sched.run();
  EXPECT_NEAR(path.time_fraction_bad(), 0.5, 0.2);
}

TEST(WanPath, FifoPreservedThroughJitter) {
  Scheduler sched;
  WanPathConfig config;
  config.loss_good = 1e-9;
  config.loss_bad = 1e-9;
  config.jitter_mean_s = 0.02;  // strong jitter
  WanPath path(sched, config, Rng(4));
  auto inject = path.attach_source(1);
  std::vector<std::int64_t> seqs;
  path.register_sink(1, [&](const Packet& p) { seqs.push_back(p.seq); });
  for (int i = 0; i < 200; ++i) {
    // Paced injections so the access buffer (60 packets) never overflows;
    // the property under test is ordering through the jitter stage.
    sched.post_at(SimTime::millis(2 * i), [&inject, i] {
      Packet p;
      p.flow = 1;
      p.seq = i;
      p.size_bytes = 200;
      inject(p);
    });
  }
  sched.run();
  ASSERT_EQ(seqs.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(seqs[static_cast<size_t>(i)], i);
}

TEST(WanPath, TcpTransfersReliablyAcrossIt) {
  Scheduler sched;
  WanPath path(sched, adsl_fast_profile(), Rng(5));
  auto conn = make_connection(sched, 1, path, default_video_tcp());
  std::vector<std::int64_t> delivered;
  conn.sink->set_deliver_callback(
      [&](std::int64_t tag, SimTime) { delivered.push_back(tag); });
  int enqueued = 0;
  const int total = 3000;
  auto pump = [&] {
    while (enqueued < total && conn.sender->enqueue(enqueued)) ++enqueued;
  };
  conn.sender->set_space_callback(pump);
  pump();
  sched.run_until(SimTime::seconds(300));
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    ASSERT_EQ(delivered[static_cast<std::size_t>(i)], i);
  }
}

// One TCP transfer across a WanPath: what the sink delivers when, the
// path's counters and the scheduler's event counts.
struct WanTransfer {
  std::vector<std::int64_t> delivered;  // (tag, time ns) pairs
  LinkFlowCounters counters;
  std::uint64_t executed = 0;
  std::uint64_t dispatched = 0;
};

WanTransfer run_wan_transfer(bool eager) {
  Scheduler sched;
  if (eager) sched.keep_links_eager();
  WanPath path(sched, adsl_fast_profile(), Rng(6));
  auto conn = make_connection(sched, 1, path, default_video_tcp());
  WanTransfer out;
  conn.sink->set_deliver_callback([&](std::int64_t tag, SimTime at) {
    out.delivered.push_back(tag);
    out.delivered.push_back(at.ns());
  });
  int enqueued = 0;
  const int total = 3000;
  auto pump = [&] {
    while (enqueued < total && conn.sender->enqueue(enqueued)) ++enqueued;
  };
  conn.sender->set_space_callback(pump);
  pump();
  sched.run_until(SimTime::seconds(300));
  out.counters = path.flow_counters(1);
  out.executed = sched.events_executed();
  out.dispatched = sched.events_dispatched();
  return out;
}

// WanPath's access and reverse links run lazy; the eager reference pops
// every tx-done, and both agree on everything else.
TEST(WanPath, LazyLinksMatchTheEagerReference) {
  const WanTransfer eager = run_wan_transfer(true);
  const WanTransfer lazy = run_wan_transfer(false);
  ASSERT_EQ(eager.delivered.size(), 2u * 3000u);
  EXPECT_EQ(lazy.delivered, eager.delivered);
  EXPECT_EQ(lazy.counters.arrivals, eager.counters.arrivals);
  EXPECT_EQ(lazy.counters.drops, eager.counters.drops);
  EXPECT_GT(eager.counters.drops, 0u);
  EXPECT_EQ(lazy.executed, eager.executed);
  EXPECT_EQ(eager.dispatched, eager.executed);
  EXPECT_LT(lazy.dispatched, lazy.executed);
}

TEST(InternetExperiment, ProducesTraceAndPathEstimates) {
  InternetExperimentConfig config;
  config.paths = {adsl_fast_profile(), adsl_fast_profile()};
  config.mu_pps = 50.0;
  config.duration_s = 300.0;
  config.seed = 6;
  const auto result = run_internet_experiment(config);
  EXPECT_EQ(result.packets_generated, 15000);
  EXPECT_GT(result.trace.arrivals(), 14000u);
  ASSERT_EQ(result.paths.size(), 2u);
  for (const auto& m : result.paths) {
    EXPECT_GT(m.loss_rate, 0.001);
    EXPECT_LT(m.loss_rate, 0.1);
    EXPECT_GT(m.rtt_s, 0.06);
    EXPECT_LT(m.rtt_s, 0.4);
    EXPECT_GT(m.to_ratio, 1.0);
  }
  EXPECT_NEAR(result.paths[0].share + result.paths[1].share, 1.0, 1e-9);
}

TEST(InternetExperiment, HeterogeneousPathsSkewTheSplit) {
  InternetExperimentConfig config;
  config.paths = {adsl_fast_profile(), transpacific_path_profile()};
  config.mu_pps = 100.0;
  config.duration_s = 400.0;
  config.seed = 7;
  const auto result = run_internet_experiment(config);
  // DMP's split must follow achievable throughput: the transpacific
  // profile is longer but much cleaner (loss ~0.4% vs ~1.6%), so it
  // carries the larger share despite the higher RTT.
  EXPECT_GT(result.paths[1].share, result.paths[0].share);
  EXPECT_LT(result.paths[1].loss_rate, result.paths[0].loss_rate);
  // Transpacific RTT clearly larger.
  EXPECT_GT(result.paths[1].rtt_s, result.paths[0].rtt_s);
}

TEST(InternetExperiment, LateFractionsDecreaseWithTau) {
  InternetExperimentConfig config;
  config.paths = {adsl_fast_profile(), adsl_fast_profile()};
  config.mu_pps = 50.0;
  config.duration_s = 600.0;
  config.seed = 8;
  const auto result = run_internet_experiment(config);
  double prev = 1.1;
  for (double tau : {2.0, 4.0, 6.0, 8.0, 10.0}) {
    const double f = result.trace.late_fraction_playback_order(
        tau, result.packets_generated);
    EXPECT_LE(f, prev + 1e-12);
    prev = f;
  }
}

TEST(InternetExperiment, RejectsEmptyPathList) {
  InternetExperimentConfig config;
  EXPECT_THROW(run_internet_experiment(config), std::invalid_argument);
}

}  // namespace
}  // namespace dmp::emul
