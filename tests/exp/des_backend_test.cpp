// Lazy links at the session level: a plain run (every drop-tail link lazy,
// finite-buffer bottlenecks included, and the bottleneck -> exit hops
// fused, so neither tx-dones nor those deliveries enter the queue) and an
// `obs.enabled` run (metrics on, so every link stays eager and every timer
// arm pushes its own entry) must produce the same trajectory — trace,
// events_executed / _cancelled / _scheduled, per-path measurements and
// bottleneck flow counters — on the tie-heavy 5 Mb/s settings, where the
// 2.4 ms bottleneck tx time is exactly 20 access tx times and
// same-nanosecond pops are common, and on the correlated Setting 1, where
// two video flows share one lazy bottleneck.  The redundant + faults arm
// keeps the fault-reachable bottlenecks eager while the rest stay lazy.
// The single DES backend keeps the experiment engine's thread-count
// invariance, and DMP_DES is gone.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "exp/options.hpp"
#include "exp/plan.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
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

// The same session with metrics on: every link eager.
SessionConfig eager(SessionConfig config, const std::string& prefix) {
  config.obs.enabled = true;
  config.obs.probe_interval_s = 0.0;
  config.obs.output_dir = "des_backend_test_out";
  config.obs.prefix = prefix;
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

TEST(LazyLinkSession, PlainMatchesEagerOnSetting33) {
  const SessionConfig plain = setting(3, 3, 30.0);
  expect_identical(run_session(plain), run_session(eager(plain, "s33")));
}

TEST(LazyLinkSession, PlainMatchesEagerOnSetting13) {
  const SessionConfig plain = setting(1, 3, 40.0);
  expect_identical(run_session(plain), run_session(eager(plain, "s13")));
}

TEST(LazyLinkSession, PlainMatchesEagerOnCorrelatedSetting1) {
  const SessionConfig plain = correlated(1, 2, 50.0);
  const SessionResult lazy = run_session(plain);
  const SessionResult exact = run_session(eager(plain, "c1"));
  expect_identical(lazy, exact);
  ASSERT_EQ(lazy.paths.size(), 2u);
  for (const PathMeasurement& m : lazy.paths) EXPECT_GT(m.loss_rate, 0.0);
}

TEST(LazyLinkSession, PlainMatchesEagerOnSetting44) {
  // 30-packet buffers and 1 ms propagation: the tie-heavy drop case.
  const SessionConfig plain = setting(4, 4, 50.0);
  const SessionResult lazy = run_session(plain);
  const SessionResult exact = run_session(eager(plain, "s44"));
  expect_identical(lazy, exact);
  for (const PathMeasurement& m : lazy.paths) {
    EXPECT_GT(m.bottleneck.drops, 0u);
  }
}

TEST(LazyLinkSession, RealPopsShrinkOnLazyLinksOnly) {
  // Setting 1-1 at the Fig-4/5 run shape.  Every link eager, each logical
  // event is a pop; plain, the virtual tx-dones, fused deliveries and
  // fused send hops (jitter-delayed emissions into lazy entry links) are
  // not.
  SessionConfig plain = setting(1, 1, 50.0);
  plain.duration_s = 40.0;
  plain.warmup_s = 10.0;
  plain.drain_s = 10.0;
  plain.seed = 7;
  const SessionResult lazy = run_session(plain);
  const SessionResult exact = run_session(eager(plain, "s11"));
  expect_identical(lazy, exact);
  EXPECT_EQ(exact.events_dispatched, exact.events_executed);
  EXPECT_EQ(exact.events_executed, 411'582u);
  // 168,520 real pops before the send hops fused, 38,029 of them
  // emissions.
  EXPECT_EQ(lazy.events_dispatched, 130'491u);
  EXPECT_LE(static_cast<double>(lazy.events_dispatched),
            0.45 * static_cast<double>(lazy.events_executed))
      << lazy.events_dispatched << " of " << lazy.events_executed;
}

TEST(LazyLinkSession, PlainMatchesEagerUnderRedundantWithFaults) {
  SessionConfig plain = setting(1, 3, 40.0, "redundant");
  plain.faults = "8 link_down path1; 12 link_up path1; 20 burst_loss path0 5";
  const SessionResult lazy = run_session(plain);
  EXPECT_EQ(lazy.fault_events_fired, 3u);
  expect_identical(lazy, run_session(eager(plain, "rf")));
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
