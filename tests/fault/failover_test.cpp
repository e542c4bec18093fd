// Differential robustness: the paper's Section 5.3/7 claim that DMP rides
// out a single-path outage (survivors absorb the reclaimed load) while
// single-path streaming pays for the whole outage in lateness — plus the
// fault layer's determinism contract (same faulted config + seed -> same
// trace; aggregate reports thread-count invariant; an empty plan leaves
// the run untouched).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/plan.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "stream/session.hpp"

namespace dmp {
namespace {

// Table-1 config 4 is the lightest background (5 FTP / 20 HTTP, 5 Mbps),
// so one video flow can comfortably carry ~30 pkts/s and a two-path DMP
// session has real headroom when one path dies.
SessionConfig blackhole_config(std::size_t num_paths, const std::string& faults) {
  SessionConfig config;
  config.path_configs.assign(num_paths, table1_config(4));
  config.num_flows = num_paths;
  config.mu_pps = 30.0;
  config.duration_s = 40.0;
  config.warmup_s = 10.0;
  config.drain_s = 30.0;
  config.seed = 4242;
  config.faults = faults;
  return config;
}

// 5-second blackhole of path0 starting mid-stream.
constexpr const char* kBlackhole = "10 link_down path0; 15 link_up path0";

double late_fraction(const SessionResult& result, double tau_s) {
  return result.trace.late_fraction_playback_order(tau_s,
                                                   result.packets_generated);
}

TEST(Failover, DmpSurvivesBlackholeSinglePathDoesNot) {
  const auto dmp = run_session(blackhole_config(2, kBlackhole));
  const auto single = run_session(blackhole_config(1, kBlackhole));
  EXPECT_EQ(dmp.fault_events_fired, 2u);
  EXPECT_EQ(single.fault_events_fired, 2u);

  const double dmp_late = late_fraction(dmp, 4.0);
  const double single_late = late_fraction(single, 4.0);
  // DMP reclaims the dead sender's unsent share and the surviving path
  // absorbs it: lateness stays bounded.  The single-path session has
  // nowhere to shift load — it stalls on RTO backoff for the full outage,
  // so at least ~outage * mu packets (12.5% of the stream) miss a 4 s
  // deadline.
  EXPECT_LT(dmp_late, 0.05) << "DMP late fraction with one path down";
  EXPECT_GT(single_late, 0.10) << "single path must pay for the outage";
  EXPECT_LT(dmp_late, single_late);
}

TEST(Failover, StaticKeepsItsOutageStall) {
  // The Section-7.4 static split has no graceful degradation: the dead
  // path keeps its share, which stalls head-of-line until the link
  // returns.  Every packet still arrives exactly once, but far later than
  // under DMP, whose survivors absorb the reclaimed load.
  auto config = blackhole_config(2, kBlackhole);
  const auto dmp = run_session(config);
  config.scheduler = "static";
  const auto fixed = run_session(config);
  EXPECT_EQ(fixed.fault_events_fired, 2u);

  ASSERT_EQ(static_cast<std::int64_t>(fixed.trace.arrivals()),
            fixed.packets_generated);
  std::vector<bool> seen(static_cast<std::size_t>(fixed.packets_generated),
                         false);
  for (const auto& e : fixed.trace.entries()) {
    ASSERT_GE(e.packet_number, 0);
    ASSERT_LT(e.packet_number, fixed.packets_generated);
    ASSERT_FALSE(seen[static_cast<std::size_t>(e.packet_number)])
        << "duplicate " << e.packet_number;
    seen[static_cast<std::size_t>(e.packet_number)] = true;
  }

  const double dmp_late = late_fraction(dmp, 4.0);
  const double static_late = late_fraction(fixed, 4.0);
  EXPECT_GT(dmp_late, 0.0);
  EXPECT_GE(static_late, 5.0 * dmp_late)
      << "static must pay for the outage: " << static_late << " vs DMP "
      << dmp_late;
}

TEST(Failover, FaultedRunIsDeterministic) {
  const auto config = blackhole_config(2, kBlackhole);
  const auto a = run_session(config);
  const auto b = run_session(config);
  EXPECT_EQ(a.fault_events_fired, 2u);
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.trace.entries().size(), b.trace.entries().size());
  ASSERT_GT(a.trace.entries().size(), 0u);
  for (std::size_t i = 0; i < a.trace.entries().size(); ++i) {
    EXPECT_EQ(a.trace.entries()[i].packet_number,
              b.trace.entries()[i].packet_number);
    EXPECT_EQ(a.trace.entries()[i].arrived.ns(),
              b.trace.entries()[i].arrived.ns());
    EXPECT_EQ(a.trace.entries()[i].path, b.trace.entries()[i].path);
  }
}

TEST(Failover, EmptyPlanLeavesRunUntouched) {
  // A whitespace/semicolon-only spec parses to an empty plan, which must
  // construct no injector and schedule nothing: the run is identical to
  // the default (no-fault) configuration, event for event.
  auto config = blackhole_config(2, "");
  const auto baseline = run_session(config);
  config.faults = "  ;  ;; ";
  const auto blank = run_session(config);
  EXPECT_EQ(baseline.fault_events_fired, 0u);
  EXPECT_EQ(blank.fault_events_fired, 0u);
  EXPECT_EQ(baseline.events_executed, blank.events_executed);
  ASSERT_EQ(baseline.trace.entries().size(), blank.trace.entries().size());
  for (std::size_t i = 0; i < baseline.trace.entries().size(); ++i) {
    EXPECT_EQ(baseline.trace.entries()[i].arrived.ns(),
              blank.trace.entries()[i].arrived.ns());
  }
}

TEST(Failover, AggregateReportThreadInvariantWithFaults) {
  exp::ExperimentPlan plan;
  plan.name = "faulted_determinism";
  plan.seed = 99;
  plan.replications = 2;
  auto faulted = blackhole_config(2, kBlackhole);
  faulted.duration_s = 25.0;
  faulted.drain_s = 15.0;
  plan.settings.push_back({"blackhole", faulted});
  auto clean = blackhole_config(2, "");
  clean.duration_s = 25.0;
  clean.drain_s = 15.0;
  plan.settings.push_back({"clean", clean});

  const auto serial = exp::ExperimentRunner(1).run(plan);
  const auto parallel = exp::ExperimentRunner(4).run(plan);
  EXPECT_EQ(serial.aggregate_json(), parallel.aggregate_json());
  ASSERT_EQ(serial.settings.size(), 2u);
  EXPECT_FALSE(serial.settings[0].metrics.empty());
}

}  // namespace
}  // namespace dmp
