// Differential suite for the PathScheduler refactor.
//
// The contract that made the refactor safe: with the default "pull" spec
// the DmpStreamingServer must reproduce the pre-interface implementation
// decision-for-decision.  The first test pins the same golden summary
// string as tests/fault/golden_figures_test.cpp with the scheduler set
// EXPLICITLY, so a drift in the compat path shows up as a byte diff even
// if the default ever changes.  The rest cross-checks the alternative
// strategies: they all deliver the stream, and the experiment runner's
// aggregate report stays byte-identical at any worker-thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "exp/plan.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "stream/session.hpp"

namespace dmp {
namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

SessionConfig golden_config() {
  SessionConfig config;
  config.path_configs = {table1_config(2), table1_config(2)};
  config.num_flows = 2;
  config.mu_pps = 50.0;
  config.duration_s = 30.0;
  config.warmup_s = 5.0;
  config.drain_s = 15.0;
  config.seed = exp::replication_seed(1, 0, 0);
  return config;
}

std::string summarize(const SessionResult& result) {
  return "gen=" + std::to_string(result.packets_generated) +
         " delivered=" + std::to_string(result.trace.entries().size()) +
         " f4=" + num(result.trace.late_fraction_playback_order(
                      4.0, result.packets_generated)) +
         " p1=" + num(result.paths[0].loss_rate) +
         " p2=" + num(result.paths[1].loss_rate) +
         " share1=" + num(result.paths[0].share);
}

// The golden from tests/fault/golden_figures_test.cpp (recorded before the
// PathScheduler interface existed).  `pull` must reproduce it byte for
// byte; any divergence means the compat scheduler's decision sequence
// drifted from the paper's scheme.
constexpr const char* kGoldenSummary =
    "gen=1500 delivered=1500 f4=0 p1=0.02732919254658385 "
    "p2=0.038770053475935831 share1=0.52200000000000002";

TEST(SchedulerDifferential, PullSpecIsByteIdenticalToPreRefactorGolden) {
  auto config = golden_config();
  config.scheduler = "pull";  // explicit, not just the default
  const auto result = run_session(config);
  ASSERT_EQ(result.paths.size(), 2u);
  EXPECT_EQ(summarize(result), kGoldenSummary);
  // The compat policy adds no redundancy machinery to the run.
  EXPECT_EQ(result.duplicates_sent, 0u);
  EXPECT_EQ(result.parity_sent, 0u);
  EXPECT_EQ(result.duplicates_suppressed, 0u);
}

TEST(SchedulerDifferential, DefaultSpecIsPull) {
  const auto result = run_session(golden_config());
  EXPECT_EQ(summarize(result), kGoldenSummary);
}

// Goldens for the static baseline and the stored source, recorded when
// each was still a separate server class: a `static` policy or a stored
// source on the one DMP server must reproduce them byte for byte.
std::string fold_summary(const SessionResult& result) {
  std::string out = "gen=" + std::to_string(result.packets_generated) +
                    " events=" + std::to_string(result.events_executed);
  for (const int tau : {2, 4, 8}) {
    out += " f" + std::to_string(tau) + "=" +
           num(result.trace.late_fraction_playback_order(
               tau, result.packets_generated));
  }
  return out + " split=" + num(result.paths[0].share) + "," +
         num(result.paths[1].share);
}

TEST(SchedulerDifferential, StaticAndStoredMatchPreFoldGoldens) {
  struct Case {
    const char* scheduler;
    bool stored;
    const char* golden;
  };
  const Case cases[] = {
      {"static", false,
       "gen=1500 events=354203 f2=0.16400000000000001 "
       "f4=0.012666666666666666 f8=0 split=0.5,0.5"},
      {"static:3,1", false,
       "gen=1500 events=353874 f2=0.45466666666666666 "
       "f4=0.29199999999999998 f8=0 split=0.75,0.25"},
      {"pull", true,
       "gen=1500 events=352481 f2=0 f4=0 f8=0 "
       "split=0.60466666666666669,0.39533333333333331"},
  };
  for (const auto& c : cases) {
    auto config = golden_config();
    config.scheduler = c.scheduler;
    config.stored = c.stored;
    EXPECT_EQ(fold_summary(run_session(config)), c.golden)
        << c.scheduler << (c.stored ? " stored" : " live");
  }
}

TEST(SchedulerDifferential, EveryStrategyDeliversTheStream) {
  for (const char* spec : {"weighted", "weighted:0.6,0.4", "static",
                           "static:0.6,0.4", "best_path", "round_robin",
                           "redundant", "parity-4"}) {
    auto config = golden_config();
    config.scheduler = spec;
    const auto result = run_session(config);
    EXPECT_EQ(result.packets_generated, 1500) << spec;
    // Every strategy delivers (almost) the whole stream; exactly-once
    // means never more entries than generated packets.
    EXPECT_LE(static_cast<std::int64_t>(result.trace.entries().size()),
              result.packets_generated)
        << spec;
    EXPECT_GE(static_cast<double>(result.trace.entries().size()),
              0.98 * static_cast<double>(result.packets_generated))
        << spec;
  }
}

TEST(SchedulerDifferential, AggregateReportThreadInvariantPerScheduler) {
  for (const char* spec : {"pull", "redundant"}) {
    exp::ExperimentPlan plan;
    plan.name = std::string("sched_diff_") + spec;
    plan.seed = 99;
    plan.replications = 2;
    auto config = golden_config();
    config.duration_s = 20.0;
    config.drain_s = 10.0;
    config.scheduler = spec;
    plan.settings.push_back({spec, config});
    plan.metrics = [](const SessionResult& result, std::size_t,
                      std::size_t) {
      std::vector<std::pair<std::string, double>> m;
      m.emplace_back("delivered",
                     static_cast<double>(result.trace.entries().size()));
      m.emplace_back("duplicates",
                     static_cast<double>(result.duplicates_sent));
      return m;
    };
    const auto serial = exp::ExperimentRunner(1).run(plan);
    const auto parallel = exp::ExperimentRunner(8).run(plan);
    EXPECT_EQ(serial.aggregate_json(), parallel.aggregate_json()) << spec;
  }
}

}  // namespace
}  // namespace dmp
