#include "exp/options.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace dmp::exp {
namespace {

// Clears every DMP_* variable around each test so the suite is immune to
// the invoking shell's environment.
class OptionsTest : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override { clear(); }

  static void clear() {
    for (const char* name :
         {"DMP_RUNS", "DMP_DURATION_S", "DMP_SEED", "DMP_MC_MIN",
          "DMP_MC_MAX", "DMP_THREADS", "DMP_OBS", "DMP_TRACE",
          "DMP_TELEMETRY", "DMP_PROFILE", "DMP_OUT_DIR", "DMP_TABLE1_PROBE_S",
          "DMP_FAULTS", "DMP_SANITIZE", "DMP_CHECK_BUILD_DIR", "DMP_SCHED",
          "DMP_QDISC", "DMP_TYPO", "DMP_RUN"}) {
      unsetenv(name);
    }
  }
};

TEST_F(OptionsTest, DefaultsWithEmptyEnvironment) {
  const auto options = BenchOptions::from_env();
  EXPECT_EQ(options.runs, 8);
  EXPECT_DOUBLE_EQ(options.duration_s, 3000.0);
  EXPECT_EQ(options.seed, 2007u);
  EXPECT_EQ(options.mc_min, 400'000u);
  EXPECT_EQ(options.mc_max, 6'400'000u);
  EXPECT_EQ(options.threads, 0u);
  EXPECT_FALSE(options.obs.any());
}

TEST_F(OptionsTest, ParsesAllKnobs) {
  setenv("DMP_RUNS", "3", 1);
  setenv("DMP_DURATION_S", "120.5", 1);
  setenv("DMP_SEED", "99", 1);
  setenv("DMP_MC_MIN", "1000", 1);
  setenv("DMP_MC_MAX", "2000", 1);
  setenv("DMP_THREADS", "4", 1);
  setenv("DMP_OBS", "metrics,trace", 1);
  const auto options = BenchOptions::from_env();
  EXPECT_EQ(options.runs, 3);
  EXPECT_DOUBLE_EQ(options.duration_s, 120.5);
  EXPECT_EQ(options.seed, 99u);
  EXPECT_EQ(options.mc_min, 1000u);
  EXPECT_EQ(options.mc_max, 2000u);
  EXPECT_EQ(options.threads, 4u);
  EXPECT_TRUE(options.obs.metrics);
  EXPECT_TRUE(options.obs.trace);
  EXPECT_FALSE(options.obs.telemetry);
  EXPECT_FALSE(options.obs.profile);
}

TEST_F(OptionsTest, ObsListTurnsOnEachNamedSink) {
  setenv("DMP_OBS", "profile,telemetry,metrics,trace", 1);
  const auto all = BenchOptions::from_env();
  EXPECT_TRUE(all.obs.metrics);
  EXPECT_TRUE(all.obs.trace);
  EXPECT_TRUE(all.obs.telemetry);
  EXPECT_TRUE(all.obs.profile);
  EXPECT_EQ(all.obs.to_string(), "metrics,trace,telemetry,profile");
  setenv("DMP_OBS", "telemetry", 1);
  const auto one = BenchOptions::from_env();
  EXPECT_TRUE(one.obs.telemetry);
  EXPECT_FALSE(one.obs.metrics);
  EXPECT_NE(one.summary().find("obs=telemetry"), std::string::npos);
}

// Every rejection must throw invalid_argument whose message names `var`
// (and contains `reason`).
void expect_rejected(const char* var, const char* value,
                     const char* reason = "") {
  setenv(var, value, 1);
  try {
    BenchOptions::from_env();
    ADD_FAILURE() << var << "='" << value << "' was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(var), std::string::npos) << what;
    EXPECT_NE(what.find(reason), std::string::npos) << what;
  }
  unsetenv(var);
}

TEST_F(OptionsTest, RejectsMalformedObsList) {
  expect_rejected("DMP_OBS", "metrics,bogus", "unknown sink 'bogus'");
  expect_rejected("DMP_OBS", "1", "unknown sink '1'");  // old boolean form
  expect_rejected("DMP_OBS", "metrics,,trace", "empty sink");
  expect_rejected("DMP_OBS", "metrics,", "empty sink");
  expect_rejected("DMP_OBS", "", "empty sink");
}

TEST_F(OptionsTest, RemovedObsSwitchesAreUnknownVariables) {
  expect_rejected("DMP_TRACE", "1", "unknown variable");
  expect_rejected("DMP_TELEMETRY", "1", "unknown variable");
  expect_rejected("DMP_PROFILE", "1", "unknown variable");
}

// Knobs that had one value in use are gone: a leftover setting fails
// loudly instead of silently doing nothing (a spec named for the in-bench
// SLO hook would otherwise leave the run ungated; slo_check is the gate).
TEST_F(OptionsTest, RetiredKnobsAreUnknownVariables) {
  expect_rejected("DMP_SLO", "slo/ci.slo", "unknown variable");
  expect_rejected("DMP_OBS_PROBE_S", "1", "unknown variable");
  expect_rejected("DMP_TELEMETRY_WINDOW_S", "1", "unknown variable");
  expect_rejected("DMP_FIG7_DURATION_S", "3000", "unknown variable");
}

TEST_F(OptionsTest, RejectsNegativeSeedsAndBudgets) {
  // strtoll accepts these, and the uint64_t cast used to wrap them to
  // seeds / budgets near 2^64.
  expect_rejected("DMP_SEED", "-1", "must not be negative");
  expect_rejected("DMP_MC_MIN", "-5", "must not be negative");
  expect_rejected("DMP_MC_MAX", "-1", "must not be negative");
  expect_rejected("DMP_SEED", " -7", "must not be negative");
}

TEST_F(OptionsTest, ParsesAndValidatesFaultPlan) {
  setenv("DMP_FAULTS", "20 link_down path1; 25 link_up path1", 1);
  const auto options = BenchOptions::from_env();
  EXPECT_EQ(options.faults, "20 link_down path1; 25 link_up path1");
}

TEST_F(OptionsTest, RejectsMalformedFaultPlan) {
  setenv("DMP_FAULTS", "20 link_dwn path1", 1);
  try {
    BenchOptions::from_env();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("DMP_FAULTS"), std::string::npos);
  }
}

TEST_F(OptionsTest, ParsesAndValidatesSchedulerSpec) {
  EXPECT_EQ(BenchOptions::from_env().sched, "pull");
  setenv("DMP_SCHED", "parity-4", 1);
  EXPECT_EQ(BenchOptions::from_env().sched, "parity-4");
  setenv("DMP_SCHED", "weighted:0.7,0.3", 1);
  EXPECT_EQ(BenchOptions::from_env().sched, "weighted:0.7,0.3");
}

TEST_F(OptionsTest, RejectsUnknownSchedulerWithAcceptedSet) {
  setenv("DMP_SCHED", "bogus", 1);
  try {
    BenchOptions::from_env();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Pinned: names the variable, the offending value, and the full
    // accepted grammar so a typo'd knob is self-diagnosing.
    EXPECT_STREQ(e.what(),
                 "bench options: DMP_SCHED: unknown scheduler 'bogus' "
                 "(accepted: pull, weighted[:w0,w1,...], "
                 "static[:w0,w1,...], best_path, round_robin, redundant, "
                 "parity-<k> for k in [2,32])");
  }
}

TEST_F(OptionsTest, ParsesAndValidatesQdiscSpec) {
  EXPECT_EQ(BenchOptions::from_env().qdisc, "droptail");
  setenv("DMP_QDISC", "pie:20,30", 1);
  EXPECT_EQ(BenchOptions::from_env().qdisc, "pie:20,30");
  setenv("DMP_QDISC", "fq_pie:16", 1);
  const auto options = BenchOptions::from_env();
  EXPECT_EQ(options.qdisc, "fq_pie:16");
  EXPECT_NE(options.summary().find("qdisc=fq_pie:16"), std::string::npos);
}

TEST_F(OptionsTest, DefaultQdiscStaysOutOfTheSummary) {
  // The summary line is part of golden bench logs: the default must not
  // add a qdisc field (byte-identity with pre-qdisc runs).
  EXPECT_EQ(BenchOptions::from_env().summary().find("qdisc"),
            std::string::npos);
  setenv("DMP_QDISC", "droptail", 1);
  EXPECT_EQ(BenchOptions::from_env().summary().find("qdisc"),
            std::string::npos);
}

TEST_F(OptionsTest, RejectsBadQdiscNamingVariableAndGrammar) {
  setenv("DMP_QDISC", "wred", 1);
  try {
    BenchOptions::from_env();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Pinned prefix: the bench-options layer names the variable, then the
    // qdisc parser names the value and the accepted grammar.
    EXPECT_STREQ(e.what(),
                 "bench options: DMP_QDISC: unknown qdisc 'wred' "
                 "(accepted: droptail, pie[:target_ms[,tupdate_ms]], "
                 "fq_pie[:flows], codel[:target_ms[,interval_ms]])");
  }
  clear();
  setenv("DMP_QDISC", "pie:0", 1);
  EXPECT_THROW(BenchOptions::from_env(), std::invalid_argument);
}

TEST_F(OptionsTest, RejectsUnknownDmpVariable) {
  setenv("DMP_TYPO", "1", 1);
  EXPECT_THROW(BenchOptions::from_env(), std::invalid_argument);
}

TEST_F(OptionsTest, RejectsMisspelledKnob) {
  setenv("DMP_RUN", "8", 1);  // missing the S
  EXPECT_THROW(BenchOptions::from_env(), std::invalid_argument);
}

TEST_F(OptionsTest, KnownNonBenchVariablesAreAllowed) {
  setenv("DMP_OUT_DIR", "/tmp/x", 1);
  setenv("DMP_SANITIZE", "asan", 1);
  EXPECT_NO_THROW(BenchOptions::from_env());
}

TEST_F(OptionsTest, RejectsMalformedNumbers) {
  setenv("DMP_RUNS", "eight", 1);
  EXPECT_THROW(BenchOptions::from_env(), std::invalid_argument);
  clear();
  setenv("DMP_RUNS", "8x", 1);  // trailing junk is an error, not 8
  EXPECT_THROW(BenchOptions::from_env(), std::invalid_argument);
  clear();
  setenv("DMP_DURATION_S", "", 1);
  EXPECT_THROW(BenchOptions::from_env(), std::invalid_argument);
}

TEST_F(OptionsTest, RejectsOutOfRangeValues) {
  setenv("DMP_RUNS", "0", 1);
  EXPECT_THROW(BenchOptions::from_env(), std::invalid_argument);
  clear();
  setenv("DMP_DURATION_S", "-5", 1);
  EXPECT_THROW(BenchOptions::from_env(), std::invalid_argument);
  clear();
  setenv("DMP_MC_MIN", "5000", 1);
  setenv("DMP_MC_MAX", "100", 1);  // max < min
  EXPECT_THROW(BenchOptions::from_env(), std::invalid_argument);
  clear();
  setenv("DMP_THREADS", "-1", 1);
  EXPECT_THROW(BenchOptions::from_env(), std::invalid_argument);
  clear();
  setenv("DMP_THREADS", "100000", 1);
  EXPECT_THROW(BenchOptions::from_env(), std::invalid_argument);
}

TEST_F(OptionsTest, ErrorNamesTheVariable) {
  setenv("DMP_MC_MAX", "ten", 1);
  try {
    BenchOptions::from_env();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("DMP_MC_MAX"), std::string::npos);
  }
}

TEST_F(OptionsTest, UnknownVariableErrorListsAcceptedSet) {
  setenv("DMP_TYPO", "1", 1);
  try {
    BenchOptions::from_env();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // Names the offending variable...
    EXPECT_NE(what.find("DMP_TYPO"), std::string::npos);
    // ...and the accepted set is generated from the real known list, so
    // newer knobs can't drift out of the message.
    EXPECT_NE(what.find("DMP_SCHED"), std::string::npos);
    EXPECT_NE(what.find("DMP_QDISC"), std::string::npos);
    EXPECT_NE(what.find("DMP_TABLE1_PROBE_S"), std::string::npos);
  }
}

TEST_F(OptionsTest, SummaryMentionsEffectiveValues) {
  setenv("DMP_RUNS", "5", 1);
  setenv("DMP_THREADS", "2", 1);
  const auto summary = BenchOptions::from_env().summary();
  EXPECT_NE(summary.find("runs=5"), std::string::npos);
  EXPECT_NE(summary.find("threads=2"), std::string::npos);
}

}  // namespace
}  // namespace dmp::exp
