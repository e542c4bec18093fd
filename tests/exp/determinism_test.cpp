// Determinism contract of the experiment engine:
//   * one SessionConfig + seed -> bit-identical StreamTrace and
//     PathMeasurements, run after run;
//   * the ExperimentRunner's aggregate report is byte-identical at any
//     worker-thread count;
//   * replication exceptions are captured per outcome, in order;
//   * map()/run_ordered() deliver results in index order.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/plan.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "stream/session.hpp"

namespace dmp::exp {
namespace {

SessionConfig quick_config(const std::string& scheduler = "pull") {
  SessionConfig config;
  config.path_configs = {table1_config(2), table1_config(2)};
  config.num_flows = 2;
  config.mu_pps = 50.0;
  config.duration_s = 20.0;
  config.warmup_s = 5.0;
  config.drain_s = 10.0;
  config.scheduler = scheduler;
  return config;
}

TEST(Determinism, IdenticalConfigAndSeedGiveIdenticalResults) {
  auto config = quick_config();
  config.seed = 12345;
  const auto a = run_session(config);
  const auto b = run_session(config);

  ASSERT_EQ(a.trace.entries().size(), b.trace.entries().size());
  ASSERT_GT(a.trace.entries().size(), 0u);
  for (std::size_t i = 0; i < a.trace.entries().size(); ++i) {
    EXPECT_EQ(a.trace.entries()[i].packet_number,
              b.trace.entries()[i].packet_number);
    EXPECT_EQ(a.trace.entries()[i].arrived.ns(),
              b.trace.entries()[i].arrived.ns());
    EXPECT_EQ(a.trace.entries()[i].path, b.trace.entries()[i].path);
  }
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t k = 0; k < a.paths.size(); ++k) {
    EXPECT_EQ(a.paths[k].loss_rate, b.paths[k].loss_rate);
    EXPECT_EQ(a.paths[k].rtt_s, b.paths[k].rtt_s);
    EXPECT_EQ(a.paths[k].to_ratio, b.paths[k].to_ratio);
    EXPECT_EQ(a.paths[k].share, b.paths[k].share);
  }
}

TEST(Determinism, DifferentSeedsGiveDifferentTraces) {
  auto config = quick_config();
  config.seed = 1;
  const auto a = run_session(config);
  config.seed = 2;
  const auto b = run_session(config);
  bool differs = a.trace.entries().size() != b.trace.entries().size();
  if (!differs) {
    for (std::size_t i = 0; i < a.trace.entries().size(); ++i) {
      if (a.trace.entries()[i].arrived.ns() !=
          b.trace.entries()[i].arrived.ns()) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs);
}

ExperimentPlan small_plan() {
  ExperimentPlan plan;
  plan.name = "determinism_test";
  plan.seed = 777;
  plan.replications = 3;
  plan.settings.push_back({"dmp", quick_config("pull")});
  plan.settings.push_back({"static", quick_config("static")});
  return plan;
}

TEST(Determinism, AggregateReportIsThreadCountInvariant) {
  const auto plan = small_plan();
  const auto serial = ExperimentRunner(1).run(plan);
  const auto parallel = ExperimentRunner(4).run(plan);
  EXPECT_EQ(serial.aggregate_json(), parallel.aggregate_json());
  // Sanity: the report actually carries data.
  ASSERT_EQ(serial.settings.size(), 2u);
  EXPECT_EQ(serial.settings[0].seeds.size(), 3u);
  EXPECT_FALSE(serial.settings[0].metrics.empty());
  EXPECT_GT(serial.aggregate_json().size(), 100u);
}

TEST(Determinism, ReplicationSeedsAreDisjointAcrossSettingsAndReps) {
  const auto plan = small_plan();
  const auto report = ExperimentRunner(2).run(plan);
  std::vector<std::uint64_t> seeds;
  for (const auto& setting : report.settings) {
    for (std::uint64_t seed : setting.seeds) seeds.push_back(seed);
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]);
    }
  }
  // And they follow the documented derivation.
  EXPECT_EQ(report.settings[0].seeds[2], replication_seed(plan.seed, 0, 2));
  EXPECT_EQ(report.settings[1].seeds[0], replication_seed(plan.seed, 1, 0));
}

TEST(Determinism, ReplicationExceptionsAreCapturedPerOutcome) {
  ExperimentPlan plan;
  plan.name = "failure_capture";
  plan.seed = 5;
  plan.replications = 2;
  plan.settings.push_back({"ok", quick_config()});
  // Static policy with a 3-entry weight vector over 2 senders throws
  // std::invalid_argument inside run_session.
  auto bad = quick_config("static:1,1,1");
  plan.settings.push_back({"bad", bad});

  std::vector<std::string> errors;
  const auto report = ExperimentRunner(3).run(
      plan, [&](std::size_t, std::size_t, const ReplicationOutcome& outcome) {
        errors.push_back(outcome.error);
      });
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_TRUE(errors[0].empty());
  EXPECT_TRUE(errors[1].empty());
  EXPECT_NE(errors[2].find("weights"), std::string::npos);
  EXPECT_NE(errors[3].find("weights"), std::string::npos);
  // Failures land in the report (and its JSON), successes do not.
  EXPECT_EQ(report.settings[0].failures[0], "");
  EXPECT_NE(report.settings[1].failures[0], "");
  EXPECT_NE(report.aggregate_json().find("weights"), std::string::npos);
  // The failing setting has no metric samples; the good one has one per
  // replication.
  EXPECT_TRUE(report.settings[1].metrics.empty());
  ASSERT_FALSE(report.settings[0].metrics.empty());
  EXPECT_EQ(report.settings[0].metrics[0].samples.size(), 2u);
}

TEST(RunOrdered, ConsumesInIndexOrderAtAnyThreadCount) {
  for (std::size_t threads : {1u, 2u, 7u}) {
    const ExperimentRunner runner(threads);
    std::vector<std::size_t> order;
    runner.run_ordered(
        25, [](std::size_t i) { return i * i; },
        [&](std::size_t i, std::size_t value) {
          EXPECT_EQ(value, i * i);
          order.push_back(i);
        });
    ASSERT_EQ(order.size(), 25u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(RunOrdered, MapReturnsResultsInIndexOrder) {
  const auto values = ExperimentRunner(4).map(
      50, [](std::size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(values.size(), 50u);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], static_cast<int>(i) * 3);
  }
}

TEST(RunOrdered, ProducerExceptionPropagatesToCaller) {
  const ExperimentRunner runner(3);
  EXPECT_THROW(
      runner.run_ordered(
          10,
          [](std::size_t i) -> int {
            if (i == 4) throw std::runtime_error{"boom"};
            return 0;
          },
          [](std::size_t, int) {}),
      std::runtime_error);
}

TEST(RunOrdered, AllIndicesProducedExactlyOnce) {
  std::atomic<int> produced{0};
  std::vector<int> counts(200, 0);
  ExperimentRunner(8).run_ordered(
      200,
      [&](std::size_t i) {
        produced.fetch_add(1);
        return i;
      },
      [&](std::size_t, std::size_t i) { ++counts[i]; });
  EXPECT_EQ(produced.load(), 200);
  for (int c : counts) EXPECT_EQ(c, 1);
}

}  // namespace
}  // namespace dmp::exp
