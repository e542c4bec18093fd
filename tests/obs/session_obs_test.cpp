// Sim-level observability tests: a 2-path DMP session with obs enabled must
// emit a consistent RunReport, a gauge time series, and an event log, and
// the cross-checkable numbers (per-path packet counters vs. the client
// trace's path split) must agree exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "stream/session.hpp"

namespace dmp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

SessionConfig obs_session(const std::string& prefix) {
  SessionConfig config;
  config.path_configs = {table1_config(4), table1_config(4)};
  config.mu_pps = 50.0;
  config.duration_s = 60.0;
  config.warmup_s = 10.0;
  config.drain_s = 30.0;
  config.seed = 7;
  config.obs.enabled = true;
  config.obs.output_dir = "obs_session_test_out";
  config.obs.prefix = prefix;
  config.obs.probe_interval_s = 1.0;
  config.obs.min_severity = obs::Severity::kDebug;
  return config;
}

TEST(SessionObs, DisabledByDefaultAllocatesNothing) {
  SessionConfig config;
  config.path_configs = {table1_config(4), table1_config(4)};
  config.duration_s = 30.0;
  config.warmup_s = 5.0;
  config.drain_s = 10.0;
  const auto result = run_session(config);
  // No sink on: no hub, so no registry, event log, flight recorder or
  // telemetry sketches, and no artifacts.
  EXPECT_EQ(result.hub, nullptr);
  EXPECT_EQ(result.metrics, nullptr);
}

TEST(SessionObs, PathCountersMatchTracePathSplit) {
  const auto result = run_session(obs_session("split"));
  ASSERT_NE(result.metrics, nullptr);

  const auto split = result.trace.path_split(2);
  const auto arrivals = static_cast<double>(result.trace.arrivals());
  ASSERT_GT(arrivals, 0.0);
  for (std::size_t k = 0; k < 2; ++k) {
    const auto* counter = result.metrics->find_counter(
        "client.path" + std::to_string(k) + ".packets");
    ASSERT_NE(counter, nullptr) << "path " << k;
    EXPECT_EQ(counter->value(),
              static_cast<std::uint64_t>(std::llround(split[k] * arrivals)))
        << "path " << k;
  }

  // The client-side delay histogram saw every arrival.
  const auto* delay = result.metrics->find_histogram("client.delay_s");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->count(), result.trace.arrivals());
  EXPECT_GT(delay->mean(), 0.0);

  // Server pulls flow through the same counters the trace measures: every
  // delivered packet was pulled exactly once.
  const auto* p0 = result.metrics->find_counter("server.pulls.path0");
  const auto* p1 = result.metrics->find_counter("server.pulls.path1");
  ASSERT_NE(p0, nullptr);
  ASSERT_NE(p1, nullptr);
  EXPECT_GE(p0->value() + p1->value(), result.trace.arrivals());
}

TEST(SessionObs, EmitsReportProbeAndEventArtifacts) {
  const auto result = run_session(obs_session("artifacts"));
  ASSERT_NE(result.hub, nullptr);
  const obs::ObsConfig& paths = result.hub->config();
  ASSERT_TRUE(std::filesystem::exists(paths.report_path()));
  ASSERT_TRUE(std::filesystem::exists(paths.probe_csv_path()));
  ASSERT_TRUE(std::filesystem::exists(paths.events_path()));

  const std::string report = slurp(paths.report_path());
  EXPECT_NE(report.find("\"scheme\":\"dmp\""), std::string::npos);
  EXPECT_NE(report.find("\"path_split\""), std::string::npos);
  EXPECT_NE(report.find("\"tcp.path0.retransmissions\""), std::string::npos);
  EXPECT_NE(report.find("\"client.delay_s\""), std::string::npos);

  // The probe CSV carries per-path cwnd and the server queue time series.
  const std::string csv = slurp(paths.probe_csv_path());
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_NE(header.find("tcp.path0.cwnd"), std::string::npos);
  EXPECT_NE(header.find("tcp.path1.cwnd"), std::string::npos);
  EXPECT_NE(header.find("server.queue_depth"), std::string::npos);
  // ~1 sample/s over a 100 s horizon: expect a real time series.
  std::size_t rows = 0;
  for (char c : csv) {
    if (c == '\n') ++rows;
  }
  EXPECT_GT(rows, 50u);

  // Table-1 bottlenecks are congested, so drops and pulls must appear.
  ASSERT_NE(result.hub->events(), nullptr);
  EXPECT_GT(result.hub->events()->total_recorded(), 0u);
  const std::string events = slurp(paths.events_path());
  EXPECT_NE(events.find("\"type\":\"pull\""), std::string::npos);
  EXPECT_NE(events.find("\"type\":\"drop\""), std::string::npos);
}

// One arm of the perturbation check: which DMP_OBS sinks are on, and
// whether the run also exercises the fault-injector, redundancy and AQM
// bind points.
struct PerturbationArm {
  const char* name;
  obs::ObsSinks sinks;
  bool redundant_pie_faults = false;
};

void PrintTo(const PerturbationArm& arm, std::ostream* out) {
  *out << arm.name;
}

// Instrumentation must not perturb the simulation: identical seeds give
// identical traces with and without the arm's sinks attached.
void expect_obs_run_matches_plain_run(const PerturbationArm& arm) {
  SessionConfig plain;
  plain.path_configs = {table1_config(4), table1_config(4)};
  plain.mu_pps = 50.0;
  plain.duration_s = 60.0;
  plain.warmup_s = 10.0;
  plain.drain_s = 30.0;
  plain.seed = 7;
  if (arm.redundant_pie_faults) {
    plain.scheduler = "redundant";
    plain.qdisc = "pie";
    plain.faults = "20 link_down path1; 25 link_up path1";
  }
  SessionConfig traced = plain;
  traced.obs.enabled = arm.sinks.metrics;
  traced.obs.flight_recorder = arm.sinks.trace;
  traced.obs.output_dir = "obs_session_test_out";
  traced.obs.prefix = std::string("perturb_") + arm.name;
  traced.obs.min_severity = obs::Severity::kDebug;
  traced.telemetry.enabled = arm.sinks.telemetry;
  traced.telemetry.write_artifacts = true;
  traced.profile = arm.sinks.profile;

  const auto a = run_session(plain);
  const auto b = run_session(traced);
  // The profiler alone is not a hub sink: it builds no hub.
  const obs::ObsSinks& on = arm.sinks;
  ASSERT_EQ(b.hub != nullptr, on.metrics || on.trace || on.telemetry);
  if (b.hub) {
    EXPECT_EQ(b.hub->artifact_write_failures(), 0);
  }
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.fault_events_fired, b.fault_events_fired);
  EXPECT_EQ(a.duplicates_sent, b.duplicates_sent);
  EXPECT_EQ(a.duplicates_suppressed, b.duplicates_suppressed);
  ASSERT_EQ(a.trace.arrivals(), b.trace.arrivals());
  for (std::size_t i = 0; i < a.trace.arrivals(); ++i) {
    ASSERT_EQ(a.trace.entries()[i].packet_number,
              b.trace.entries()[i].packet_number);
    ASSERT_EQ(a.trace.entries()[i].arrived, b.trace.entries()[i].arrived);
    ASSERT_EQ(a.trace.entries()[i].path, b.trace.entries()[i].path);
  }
  if (arm.redundant_pie_faults) {
    EXPECT_GT(b.fault_events_fired, 0u);
    EXPECT_GT(b.duplicates_sent, 0u);
  }
}

obs::ObsSinks sinks(bool metrics, bool trace, bool telemetry, bool profile) {
  obs::ObsSinks s;
  s.metrics = metrics;
  s.trace = trace;
  s.telemetry = telemetry;
  s.profile = profile;
  return s;
}

// Every sink on at once.
TEST(SessionObs, ObsRunMatchesPlainRunPacketForPacket) {
  expect_obs_run_matches_plain_run(
      PerturbationArm{"all", sinks(true, true, true, true)});
}

// Each sink alone, and all of them on a run that also reaches the
// fault-injector, redundancy and AQM bind points.
class SessionObsPerturbation
    : public ::testing::TestWithParam<PerturbationArm> {};

TEST_P(SessionObsPerturbation, ObsRunMatchesPlainRunPacketForPacket) {
  expect_obs_run_matches_plain_run(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Sinks, SessionObsPerturbation,
    ::testing::Values(
        PerturbationArm{"metrics", sinks(true, false, false, false)},
        PerturbationArm{"trace", sinks(false, true, false, false)},
        PerturbationArm{"telemetry", sinks(false, false, true, false)},
        PerturbationArm{"profile", sinks(false, false, false, true)},
        PerturbationArm{"all_redundant_pie_faults",
                        sinks(true, true, true, true), true}),
    [](const ::testing::TestParamInfo<PerturbationArm>& arm_info) {
      return std::string(arm_info.param.name);
    });

}  // namespace
}  // namespace dmp
