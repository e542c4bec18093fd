// Lazy links at the session level: a plain run (every drop-tail link lazy,
// finite-buffer bottlenecks included, and the bottleneck -> exit hops
// fused, so neither tx-dones nor those deliveries enter the queue), the
// eager reference (Scheduler::keep_links_eager: every tx-done and delivery
// pops) and an observed run (every sink on, lazy) must produce the same
// trajectory — trace, events_executed / _cancelled / _scheduled, per-path
// measurements and bottleneck flow counters — on the tie-heavy 5 Mb/s
// settings, where the 2.4 ms bottleneck tx time is exactly 20 access tx
// times and same-nanosecond pops are common, on the correlated Settings 1
// and 1-4 of Table 3, where video flows share one lazy bottleneck, and
// under every path scheduler.  The faults arms keep the fault-reachable
// bottlenecks eager while the rest stay lazy.  On Setting 1-1 the observed
// run's artifacts match the eager reference's.  The single DES backend
// keeps the experiment engine's thread-count invariance, and DMP_DES is
// gone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/options.hpp"
#include "exp/plan.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "obs/trace_analyzer.hpp"
#include "stream/session.hpp"

namespace dmp::exp {
namespace {

SessionConfig setting(int a, int b, double mu_pps,
                      const std::string& scheduler = "pull") {
  SessionConfig config;
  config.path_configs = {table1_config(a), table1_config(b)};
  config.num_flows = 2;
  config.mu_pps = mu_pps;
  config.duration_s = 30.0;
  config.warmup_s = 5.0;
  config.drain_s = 10.0;
  config.scheduler = scheduler;
  config.seed = 20071211;
  return config;
}

// The same session on the eager reference: every link eager.
SessionResult eager(const SessionConfig& config) {
  Scheduler sched;
  sched.keep_links_eager();
  return run_session(config, sched);
}

// The same session with every sink on, artifacts under `prefix`.
SessionConfig observed(SessionConfig config, const std::string& prefix) {
  config.obs.enabled = true;
  config.obs.flight_recorder = true;
  config.obs.probe_interval_s = 0.0;
  config.obs.output_dir = "des_backend_test_out";
  config.obs.prefix = prefix;
  config.telemetry.enabled = true;
  config.telemetry.write_artifacts = true;
  config.profile = true;
  return config;
}

// Fig. 6: `flows` video flows on one Table-1 bottleneck.
SessionConfig correlated(int config_id, std::size_t flows, double mu_pps) {
  SessionConfig config = setting(config_id, config_id, mu_pps);
  config.path_configs = {table1_config(config_id)};
  config.correlated = true;
  config.num_flows = flows;
  return config;
}

void expect_identical(const SessionResult& a, const SessionResult& b) {
  ASSERT_EQ(a.trace.entries().size(), b.trace.entries().size());
  ASSERT_GT(a.trace.entries().size(), 0u);
  for (std::size_t i = 0; i < a.trace.entries().size(); ++i) {
    ASSERT_EQ(a.trace.entries()[i].packet_number,
              b.trace.entries()[i].packet_number) << "entry " << i;
    ASSERT_EQ(a.trace.entries()[i].arrived.ns(),
              b.trace.entries()[i].arrived.ns()) << "entry " << i;
    ASSERT_EQ(a.trace.entries()[i].path, b.trace.entries()[i].path)
        << "entry " << i;
  }
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.events_cancelled, b.events_cancelled);
  EXPECT_EQ(a.events_scheduled, b.events_scheduled);
  EXPECT_EQ(a.fault_events_fired, b.fault_events_fired);
  EXPECT_EQ(a.duplicates_sent, b.duplicates_sent);
  EXPECT_EQ(a.duplicates_suppressed, b.duplicates_suppressed);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t k = 0; k < a.paths.size(); ++k) {
    const PathMeasurement& x = a.paths[k];
    const PathMeasurement& y = b.paths[k];
    EXPECT_EQ(x.loss_rate, y.loss_rate) << "path " << k;
    EXPECT_EQ(x.rtt_s, y.rtt_s) << "path " << k;
    EXPECT_EQ(x.to_ratio, y.to_ratio) << "path " << k;
    EXPECT_EQ(x.share, y.share) << "path " << k;
    EXPECT_EQ(x.bottleneck.arrivals, y.bottleneck.arrivals) << "path " << k;
    EXPECT_EQ(x.bottleneck.drops, y.bottleneck.drops) << "path " << k;
    EXPECT_EQ(x.tcp.data_packets_sent, y.tcp.data_packets_sent);
    EXPECT_EQ(x.tcp.retransmissions, y.tcp.retransmissions);
    EXPECT_EQ(x.tcp.timeouts, y.tcp.timeouts);
    EXPECT_EQ(x.tcp.acks_received, y.tcp.acks_received);
  }
}

// The plain run against the eager reference and the observed run; the
// observed run pops what the plain one does.  Returns the plain result.
SessionResult expect_arms_identical(const SessionConfig& plain,
                                    const std::string& prefix) {
  SessionResult lazy = run_session(plain);
  const SessionResult reference = eager(plain);
  expect_identical(lazy, reference);
  EXPECT_EQ(reference.events_dispatched, reference.events_executed);
  const SessionResult seen = run_session(observed(plain, prefix));
  expect_identical(lazy, seen);
  EXPECT_EQ(seen.events_dispatched, lazy.events_dispatched);
  EXPECT_LT(lazy.events_dispatched, lazy.events_executed);
  return lazy;
}

TEST(LazyLinkSession, PlainMatchesEagerOnSetting33) {
  expect_arms_identical(setting(3, 3, 30.0), "s33");
}

TEST(LazyLinkSession, PlainMatchesEagerOnSetting13) {
  expect_arms_identical(setting(1, 3, 40.0), "s13");
}

TEST(LazyLinkSession, PlainMatchesEagerOnCorrelatedSetting1) {
  const SessionResult lazy =
      expect_arms_identical(correlated(1, 2, 50.0), "c1");
  ASSERT_EQ(lazy.paths.size(), 2u);
  for (const PathMeasurement& m : lazy.paths) EXPECT_GT(m.loss_rate, 0.0);
}

TEST(LazyLinkSession, PlainMatchesEagerOnSetting44) {
  // 30-packet buffers and 1 ms propagation: the tie-heavy drop case.
  const SessionResult lazy = expect_arms_identical(setting(4, 4, 50.0), "s44");
  for (const PathMeasurement& m : lazy.paths) {
    EXPECT_GT(m.bottleneck.drops, 0u);
  }
}

TEST(LazyLinkSession, PlainMatchesEagerOnTable3CorrelatedSettings) {
  // Table 3's shared bottlenecks at their stream rates, briefly.
  for (const auto& [config_id, mu_pps] :
       std::vector<std::pair<int, double>>{{2, 50.0}, {3, 30.0}, {4, 80.0}}) {
    SCOPED_TRACE(testing::Message() << "config " << config_id);
    SessionConfig plain = correlated(config_id, 2, mu_pps);
    plain.duration_s = 10.0;
    expect_arms_identical(plain, "t3c" + std::to_string(config_id));
  }
}

TEST(LazyLinkSession, PlainMatchesEagerUnderEverySchedulerStrategy) {
  // bench_schedulers' strategies through the fused send hops, on its
  // 1-3 grid and on its 4-4 outage arm, briefly.
  for (const char* strategy : {"pull", "weighted", "best_path", "round_robin",
                               "redundant", "parity-4"}) {
    SCOPED_TRACE(strategy);
    SessionConfig plain = setting(1, 3, 40.0, strategy);
    plain.duration_s = 10.0;
    expect_arms_identical(plain, std::string("st_") + strategy);
    SessionConfig outage = setting(4, 4, 30.0, strategy);
    outage.duration_s = 12.0;
    outage.faults = "5 link_down path0; 10 link_up path0";
    expect_arms_identical(outage, std::string("so_") + strategy);
  }
}

std::string file_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> sorted_lines(const std::string& path) {
  std::istringstream in(file_text(path));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(LazyLinkSession, RealPopsShrinkOnLazyLinksOnly) {
  // Setting 1-1 at the Fig-4/5 run shape.  Every link eager, each logical
  // event is a pop; plain or observed, the virtual tx-dones, fused
  // deliveries and fused send hops (jitter-delayed emissions into lazy
  // entry links) are not.
  SessionConfig plain = setting(1, 1, 50.0);
  plain.duration_s = 40.0;
  plain.warmup_s = 10.0;
  plain.drain_s = 10.0;
  plain.seed = 7;
  const SessionResult lazy = run_session(plain);
  const SessionConfig traced = observed(plain, "s11");
  const SessionResult seen = run_session(traced);
  SessionConfig reference_config = traced;
  reference_config.obs.prefix = "s11_eager";
  const SessionResult reference = eager(reference_config);
  expect_identical(lazy, seen);
  expect_identical(lazy, reference);
  EXPECT_EQ(reference.events_dispatched, reference.events_executed);
  EXPECT_EQ(reference.events_executed, 411'582u);
  // 168,520 real pops before the send hops fused, 38,029 of them
  // emissions.
  EXPECT_EQ(lazy.events_dispatched, 130'491u);
  EXPECT_EQ(seen.events_dispatched, 130'491u);
  EXPECT_LE(static_cast<double>(lazy.events_dispatched),
            0.45 * static_cast<double>(lazy.events_executed))
      << lazy.events_dispatched << " of " << lazy.events_executed;

  // The profile counts virtual events in their categories.
  EXPECT_EQ(seen.profile.total_executed(), seen.events_executed);
  for (std::size_t c = 0; c < kNumEventCategories; ++c) {
    EXPECT_EQ(seen.profile.by_category[c].executed,
              reference.profile.by_category[c].executed)
        << event_category_name(static_cast<EventCategory>(c));
  }
  // Every counter and gauge but the queue depths the two engines keep.
  for (const auto& [name, counter] : reference.metrics->counters()) {
    const obs::Counter* got = seen.metrics->find_counter(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(got->value(), counter.value()) << name;
  }
  EXPECT_EQ(seen.metrics->counters().size(),
            reference.metrics->counters().size());
  for (const auto& [name, gauge] : reference.metrics->gauges()) {
    if (name == "sched.events_pending" || name == "sched.max_events_pending") {
      continue;
    }
    const obs::Gauge* got = seen.metrics->find_gauge(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(got->value(), gauge.value()) << name;
  }
  // The artifacts: telemetry and event log byte for byte, spans as sorted
  // lines, and the late-packet attribution.
  const obs::ObsConfig& a = seen.hub->config();
  const obs::ObsConfig& b = reference.hub->config();
  EXPECT_EQ(file_text(a.telemetry_csv_path()),
            file_text(b.telemetry_csv_path()));
  EXPECT_EQ(file_text(a.events_path()), file_text(b.events_path()));
  EXPECT_EQ(sorted_lines(a.trace_path()), sorted_lines(b.trace_path()));
  const obs::TraceAnalyzer want(
      obs::read_flight_trace_file(b.trace_path()));
  const obs::TraceAnalyzer got(obs::read_flight_trace_file(a.trace_path()));
  for (const double tau : {2.0, 4.0, 8.0}) {
    const obs::AttributionReport w = want.attribute(tau);
    const obs::AttributionReport g = got.attribute(tau);
    EXPECT_EQ(w.late, g.late) << tau;
    EXPECT_EQ(w.by_cause, g.by_cause) << tau;
    ASSERT_EQ(w.verdicts.size(), g.verdicts.size()) << tau;
    for (std::size_t i = 0; i < w.verdicts.size(); ++i) {
      EXPECT_EQ(w.verdicts[i].packet, g.verdicts[i].packet);
      EXPECT_EQ(w.verdicts[i].cause, g.verdicts[i].cause)
          << "packet " << w.verdicts[i].packet;
    }
  }
}

TEST(LazyLinkSession, PlainMatchesEagerUnderRedundantWithFaults) {
  SessionConfig plain = setting(1, 3, 40.0, "redundant");
  plain.faults = "8 link_down path1; 12 link_up path1; 20 burst_loss path0 5";
  const SessionResult lazy = expect_arms_identical(plain, "rf");
  EXPECT_EQ(lazy.fault_events_fired, 3u);
}

TEST(DesBackend, AggregateReportIsThreadCountInvariantUnderCalendar) {
  ExperimentPlan plan;
  plan.name = "des_backend_test";
  plan.seed = 777;
  plan.replications = 3;
  plan.settings.push_back({"dmp", setting(2, 2, 50.0)});
  const auto serial = ExperimentRunner(1).run(plan);
  const auto parallel = ExperimentRunner(4).run(plan);
  EXPECT_EQ(serial.aggregate_json(), parallel.aggregate_json());
  ASSERT_EQ(serial.settings.size(), 1u);
  EXPECT_FALSE(serial.settings[0].metrics.empty());
}

TEST(DesBackend, UnknownBackendFailsFast) {
  // There is one backend and no knob: DMP_DES is an unknown variable,
  // whatever it names.
  for (const char* backend : {"heap", "calendar"}) {
    setenv("DMP_DES", backend, 1);
    EXPECT_THROW(BenchOptions::from_env(), std::invalid_argument) << backend;
  }
  unsetenv("DMP_DES");
}

}  // namespace
}  // namespace dmp::exp
