// Telemetry flowing through the experiment engine: merged quantile
// sketches must make the aggregate report byte-identical at any worker
// count, the percentiles block must carry real data, and the per-run
// telemetry CSV is pinned against golden rows (the CBR generation channel
// is exactly predictable) and byte-compared across identical runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "apps/background.hpp"
#include "exp/plan.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "stream/session.hpp"

namespace {

using dmp::exp::ExperimentPlan;
using dmp::exp::ExperimentReport;
using dmp::exp::ExperimentRunner;
using dmp::exp::PlanSetting;

dmp::SessionConfig short_config(double mu_pps) {
  dmp::SessionConfig config;
  config.path_configs = {dmp::table1_config(1), dmp::table1_config(1)};
  config.mu_pps = mu_pps;
  config.duration_s = 12.0;
  config.warmup_s = 2.0;
  config.drain_s = 5.0;
  return config;
}

ExperimentPlan telemetry_plan() {
  ExperimentPlan plan;
  plan.name = "telemetry_report_test";
  plan.settings.push_back(PlanSetting{"mu20", short_config(20.0)});
  plan.settings.push_back(PlanSetting{"mu30", short_config(30.0)});
  plan.replications = 4;
  plan.seed = 99;
  // Telemetry on EVERY replication (no artifacts): the per-replication
  // sketches feed the merged percentiles in the aggregate report.
  plan.configure = [](dmp::SessionConfig& config, std::size_t, std::size_t) {
    config.telemetry.enabled = true;
  };
  return plan;
}

TEST(TelemetryReport, PercentilesPresentAndPopulated) {
  const ExperimentReport report = ExperimentRunner{1}.run(telemetry_plan());
  ASSERT_EQ(report.settings.size(), 2u);
  for (const auto& setting : report.settings) {
    const auto* delay = setting.find_sketch("client.delay_s");
    ASSERT_NE(delay, nullptr) << setting.name;
    EXPECT_GT(delay->count(), 0u) << setting.name;
    EXPECT_GT(delay->quantile(0.99), 0.0) << setting.name;
    EXPECT_LE(delay->quantile(0.5), delay->quantile(0.99)) << setting.name;
  }
  const std::string json = report.aggregate_json();
  EXPECT_NE(json.find("\"percentiles\": ["), std::string::npos);
  EXPECT_NE(json.find("\"client.delay_s\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\": "), std::string::npos);
}

// The headline determinism contract: merged percentile columns (and the
// whole aggregate) are the same bytes whether the sweep ran on 1 worker or
// 8 — the ordered consumer merges sketches in replication-index order.
TEST(TelemetryReport, AggregateBytesIdenticalAcrossThreadCounts) {
  const std::string serial =
      ExperimentRunner{1}.run(telemetry_plan()).aggregate_json();
  const std::string parallel =
      ExperimentRunner{8}.run(telemetry_plan()).aggregate_json();
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"percentiles\": [{"), std::string::npos)
      << "determinism test ran without any merged sketch";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in{path};
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

// Golden-pinned telemetry CSV for a fig4-style run.  The CBR source is
// deterministic: with warmup 20 s and mu = 50 pps, every full generation
// window is exactly `20+k,server.generated,50,50,1,1,1,1`.  Pinning these
// rows (plus the header) locks the window indexing, the bump semantics and
// the CSV number rendering all at once.
TEST(TelemetryReport, GoldenTelemetryCsvForFig4StyleRun) {
  dmp::SessionConfig config;
  config.path_configs = {dmp::table1_config(1), dmp::table1_config(1)};
  config.mu_pps = 50.0;
  config.duration_s = 5.0;
  config.warmup_s = 20.0;
  config.drain_s = 5.0;
  config.seed = 2007;
  config.telemetry.enabled = true;
  config.telemetry.write_artifacts = true;
  config.obs.output_dir = ::testing::TempDir();
  config.obs.prefix = "golden_fig4";

  const auto result = dmp::run_session(config);
  ASSERT_NE(result.hub, nullptr);
  EXPECT_EQ(result.hub->artifact_write_failures(), 0);

  const auto lines = read_lines(config.obs.telemetry_csv_path());
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0], "window_start_s,channel,count,sum,mean,min,max,last");
  for (int k = 0; k < 5; ++k) {
    const std::string golden = std::to_string(20 + k) +
                               ",server.generated,50,50,1,1,1,1";
    bool found = false;
    for (const auto& line : lines) found = found || line == golden;
    EXPECT_TRUE(found) << "missing golden row: " << golden;
  }
  for (const auto& line : lines) {
    EXPECT_EQ(line.find("inf"), std::string::npos) << line;
    EXPECT_EQ(line.find("nan"), std::string::npos) << line;
  }

  // Byte-determinism of both artifacts across identical runs.
  dmp::SessionConfig again = config;
  again.obs.prefix = "golden_fig4_b";
  dmp::run_session(again);
  EXPECT_EQ(read_file(config.obs.telemetry_csv_path()),
            read_file(again.obs.telemetry_csv_path()));
  ASSERT_FALSE(read_file(config.obs.sketches_path()).empty());
  EXPECT_EQ(read_file(config.obs.sketches_path()),
            read_file(again.obs.sketches_path()));
}

}  // namespace
