// End-to-end session harness tests: Table-1 configurations with background
// traffic, measured path parameters, and scheme comparison.
#include "stream/session.hpp"

#include <gtest/gtest.h>

namespace dmp {
namespace {

SessionConfig quick_session() {
  SessionConfig config;
  config.path_configs = {table1_config(4), table1_config(4)};
  config.mu_pps = 50.0;
  config.duration_s = 120.0;
  config.warmup_s = 10.0;
  config.drain_s = 30.0;
  config.seed = 7;
  return config;
}

TEST(Session, ProducesTraceAndMeasurements) {
  const auto result = run_session(quick_session());
  EXPECT_GT(result.packets_generated, 5000);
  EXPECT_GT(result.trace.arrivals(), 0u);
  ASSERT_EQ(result.paths.size(), 2u);
  for (const auto& m : result.paths) {
    EXPECT_GT(m.loss_rate, 0.0);   // Table-1 bottlenecks are congested
    EXPECT_LT(m.loss_rate, 0.3);
    EXPECT_GT(m.rtt_s, 0.01);
    EXPECT_LT(m.rtt_s, 1.0);
    EXPECT_GT(m.to_ratio, 1.0);
    EXPECT_LT(m.to_ratio, 8.0);
  }
  const double share_sum = result.paths[0].share + result.paths[1].share;
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

TEST(Session, IsDeterministicForFixedSeed) {
  const auto a = run_session(quick_session());
  const auto b = run_session(quick_session());
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.trace.arrivals(), b.trace.arrivals());
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_DOUBLE_EQ(a.paths[0].loss_rate, b.paths[0].loss_rate);
  ASSERT_GT(a.trace.arrivals(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.trace.entries()[i].packet_number,
              b.trace.entries()[i].packet_number);
    EXPECT_EQ(a.trace.entries()[i].arrived, b.trace.entries()[i].arrived);
  }
}

TEST(Session, SeedChangesTheRun) {
  auto config = quick_session();
  const auto a = run_session(config);
  config.seed = 8;
  const auto b = run_session(config);
  EXPECT_NE(a.events_executed, b.events_executed);
}

TEST(Session, CorrelatedPathsShareOneBottleneck) {
  SessionConfig config;
  config.path_configs = {table1_config(4)};
  config.correlated = true;
  config.num_flows = 2;
  config.mu_pps = 40.0;
  config.duration_s = 120.0;
  config.warmup_s = 10.0;
  config.drain_s = 30.0;
  config.seed = 11;
  const auto result = run_session(config);
  ASSERT_EQ(result.paths.size(), 2u);
  // Two flows on the same bottleneck see statistically similar parameters
  // (the paper's Table-3 observation).
  EXPECT_NEAR(result.paths[0].rtt_s, result.paths[1].rtt_s,
              0.35 * result.paths[0].rtt_s);
}

TEST(Session, ValidatesConfiguration) {
  SessionConfig config;
  EXPECT_THROW(run_session(config), std::invalid_argument);  // no paths

  config.path_configs = {table1_config(1)};
  config.num_flows = 2;
  config.correlated = false;
  EXPECT_THROW(run_session(config), std::invalid_argument);  // count mismatch

  config.correlated = true;
  config.path_configs = {table1_config(1), table1_config(2)};
  EXPECT_THROW(run_session(config), std::invalid_argument);  // >1 shared path
}

TEST(Session, DmpBeatsStaticOnAsymmetricCongestion) {
  // Same network for both schemes; path 2 uses a busier configuration.
  SessionConfig config;
  config.path_configs = {table1_config(4), table1_config(3)};
  config.mu_pps = 60.0;
  config.duration_s = 200.0;
  config.warmup_s = 10.0;
  config.drain_s = 30.0;
  config.seed = 13;
  const auto dmp_result = run_session(config);
  config.scheduler = "static";
  const auto static_result = run_session(config);

  const double tau = 6.0;
  const double f_dmp = dmp_result.trace.late_fraction_playback_order(
      tau, dmp_result.packets_generated);
  const double f_static = static_result.trace.late_fraction_playback_order(
      tau, static_result.packets_generated);
  // DMP shifts load away from the congested path; static cannot.
  EXPECT_LE(f_dmp, f_static + 1e-9);
}

TEST(Session, ThreePathsWorkEndToEnd) {
  // The harness is not limited to the paper's K = 2: three independent
  // paths, exactly-once delivery, sane three-way split.
  SessionConfig config;
  config.path_configs = {table1_config(4), table1_config(4), table1_config(2)};
  config.num_flows = 3;
  config.mu_pps = 60.0;
  config.duration_s = 150.0;
  config.warmup_s = 10.0;
  config.seed = 321;
  const auto result = run_session(config);
  ASSERT_EQ(result.paths.size(), 3u);
  EXPECT_EQ(static_cast<std::int64_t>(result.trace.arrivals()),
            result.packets_generated);
  double total_share = 0.0;
  for (const auto& m : result.paths) {
    EXPECT_GT(m.share, 0.05);
    total_share += m.share;
  }
  EXPECT_NEAR(total_share, 1.0, 1e-9);
}

TEST(BackloggedProbe, MeasuresPlausibleParameters) {
  const auto probes = measure_backlogged_paths(table1_config(4), 1, 21, 200.0);
  ASSERT_EQ(probes.size(), 1u);
  const auto& m = probes[0];
  EXPECT_GT(m.loss_rate, 0.001);
  EXPECT_LT(m.loss_rate, 0.2);
  EXPECT_GT(m.rtt_s, 0.02);
  EXPECT_LT(m.rtt_s, 0.5);
  EXPECT_GT(m.to_ratio, 1.0);
  EXPECT_GT(m.throughput_pps, 10.0);
}

TEST(BackloggedProbe, AppLimitedStreamMeasuresHigherLoss) {
  // The documented drop-tail bias: the DMP video stream's bursts see a
  // higher drop probability than a backlogged flow on the same path.
  const auto probes = measure_backlogged_paths(table1_config(2), 1, 22, 300.0);
  SessionConfig config;
  config.path_configs = {table1_config(2), table1_config(2)};
  config.mu_pps = 50.0;
  config.duration_s = 300.0;
  config.seed = 22;
  const auto session = run_session(config);
  EXPECT_GT(session.paths[0].loss_rate, probes[0].loss_rate);
}

TEST(BackloggedProbe, TwoProbesShareCorrelatedPath) {
  const auto probes = measure_backlogged_paths(table1_config(4), 2, 23, 200.0);
  ASSERT_EQ(probes.size(), 2u);
  // Both flows compete on the same bottleneck: similar throughputs.
  const double ratio = probes[0].throughput_pps / probes[1].throughput_pps;
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 2.5);
}

TEST(BackloggedProbe, RejectsZeroFlows) {
  EXPECT_THROW(measure_backlogged_paths(table1_config(1), 0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace dmp
