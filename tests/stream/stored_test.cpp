// Stored-video DMP streaming (the paper's Section-3 extension): prefetching
// removes the live-source constraint, so at equal sigma_a/mu the stored
// stream is never worse than the live one.
#include <gtest/gtest.h>

#include "model/composed_chain.hpp"
#include "stream/session.hpp"
#include "stream/dmp_server.hpp"
#include "tcp/connection.hpp"

namespace dmp {
namespace {

TEST(StoredStreaming, DispatchesTheWholeVideo) {
  Scheduler sched;
  DumbbellPath path(sched, BottleneckConfig{2e6, SimTime::millis(20), 50});
  auto conn = make_connection(sched, 1, path, default_video_tcp());
  std::int64_t delivered = 0;
  conn.sink->set_deliver_callback([&](std::int64_t, SimTime) { ++delivered; });
  // 100 "seconds" of 50-pkt/s video = 5000 packets.
  DmpStreamingServer server(sched, 50.0, {conn.sender.get()}, SimTime::zero(),
                            SimTime::seconds(100), nullptr, /*stored=*/true);
  sched.run_until(SimTime::seconds(300));
  EXPECT_EQ(server.packets_generated(), 5000);
  EXPECT_EQ(server.queue_length(), 0u);
  EXPECT_EQ(delivered, 5000);
}

TEST(StoredStreaming, PrefetchesAheadOfRealTime) {
  // A stored video drains as fast as TCP allows: 2 Mbps of capacity moves
  // a 0.6 Mbps-equivalent video nearly 3x faster than real time.
  Scheduler sched;
  DumbbellPath path(sched, BottleneckConfig{2e6, SimTime::millis(20), 50});
  auto conn = make_connection(sched, 1, path, default_video_tcp());
  std::int64_t delivered = 0;
  conn.sink->set_deliver_callback([&](std::int64_t, SimTime) { ++delivered; });
  // 120 "seconds" of 50-pkt/s video = 6000 packets.
  DmpStreamingServer server(sched, 50.0, {conn.sender.get()}, SimTime::zero(),
                            SimTime::seconds(120), nullptr, /*stored=*/true);
  sched.run_until(SimTime::seconds(60));
  EXPECT_GT(delivered, 6000 / 2);  // well ahead of the 50 pkt/s clock
}

TEST(StoredStreaming, SessionSchemeBeatsLiveAtEqualTau) {
  SessionConfig config;
  config.path_configs = {table1_config(2), table1_config(2)};
  config.mu_pps = 50.0;
  config.duration_s = 300.0;
  config.seed = 77;
  const auto live = run_session(config);
  config.stored = true;
  const auto stored = run_session(config);

  EXPECT_EQ(live.packets_generated, stored.packets_generated);
  EXPECT_EQ(static_cast<std::int64_t>(stored.trace.arrivals()),
            stored.packets_generated);
  for (double tau : {2.0, 4.0, 6.0}) {
    const double f_live =
        live.trace.late_fraction_playback_order(tau, live.packets_generated);
    const double f_stored = stored.trace.late_fraction_playback_order(
        tau, stored.packets_generated);
    EXPECT_LE(f_stored, f_live + 1e-9) << "tau " << tau;
  }
}

TEST(StoredStreaming, RejectsInvalidSetup) {
  Scheduler sched;
  EXPECT_THROW(DmpStreamingServer(sched, 50.0, {}, SimTime::zero(),
                                  SimTime::seconds(2), nullptr, true),
               std::invalid_argument);
  DumbbellPath path(sched, BottleneckConfig{2e6, SimTime::millis(20), 50});
  auto conn = make_connection(sched, 1, path, default_video_tcp());
  EXPECT_THROW(DmpStreamingServer(sched, 50.0, {conn.sender.get()},
                                  SimTime::zero(), SimTime::zero(), nullptr,
                                  true),
               std::invalid_argument);
}

// --- model side ---

TcpChainParams flow(double p = 0.03) {
  TcpChainParams params;
  params.loss_rate = p;
  params.rtt_s = 0.2;
  params.to_ratio = 2.0;
  params.wmax = 12;
  return params;
}

TEST(StoredVideoModel, ComfortableRatioPlaysCleanly) {
  ComposedParams params;
  params.flows = {flow(0.01), flow(0.01)};
  const double sigma =
      2.0 * TcpFlowChain(params.flows[0]).achievable_throughput_pps();
  params.mu_pps = sigma / 2.0;  // sigma_a/mu = 2
  params.tau_s = 5.0;
  const auto result =
      stored_video_late_fraction(params, 20'000, 20, 1);
  EXPECT_LT(result.late_fraction, 1e-3);
}

TEST(StoredVideoModel, OverloadedVideoIsMostlyLate) {
  ComposedParams params;
  params.flows = {flow(0.05)};
  const double sigma =
      TcpFlowChain(params.flows[0]).achievable_throughput_pps();
  params.mu_pps = 3.0 * sigma;
  params.tau_s = 2.0;
  const auto result = stored_video_late_fraction(params, 10'000, 10, 2);
  EXPECT_GT(result.late_fraction, 0.3);
}

TEST(StoredVideoModel, StoredNeverWorseThanLiveModel) {
  // Same paths, same mu, same tau: removing the Nmax cap can only help.
  ComposedParams params;
  params.flows = {flow(0.04), flow(0.04)};
  const double sigma =
      2.0 * TcpFlowChain(params.flows[0]).achievable_throughput_pps();
  params.mu_pps = sigma / 1.3;
  params.tau_s = 4.0;

  DmpModelMonteCarlo live(params, 3);
  const double f_live = live.run(400'000, 40'000).late_fraction;
  const auto stored = stored_video_late_fraction(params, 100'000, 16, 3);
  EXPECT_LE(stored.late_fraction, f_live * 1.2 + 1e-4);
}

TEST(StoredVideoModel, LongerTauHelps) {
  ComposedParams params;
  params.flows = {flow(0.05), flow(0.05)};
  const double sigma =
      2.0 * TcpFlowChain(params.flows[0]).achievable_throughput_pps();
  params.mu_pps = sigma / 1.2;
  params.tau_s = 1.0;
  const auto short_tau = stored_video_late_fraction(params, 50'000, 12, 4);
  params.tau_s = 10.0;
  const auto long_tau = stored_video_late_fraction(params, 50'000, 12, 4);
  EXPECT_LE(long_tau.late_fraction, short_tau.late_fraction + 1e-4);
}

TEST(StoredVideoModel, ValidatesInput) {
  ComposedParams params;
  params.flows = {flow()};
  params.mu_pps = 10.0;
  EXPECT_THROW(stored_video_late_fraction(params, 0, 5, 1),
               std::invalid_argument);
  EXPECT_THROW(stored_video_late_fraction(params, 100, 0, 1),
               std::invalid_argument);
  params.flows.clear();
  EXPECT_THROW(stored_video_late_fraction(params, 100, 5, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace dmp
