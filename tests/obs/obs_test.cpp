// Unit tests for the observability layer: metrics registry, event log,
// probes and run reports.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/run_report.hpp"
#include "sim/scheduler.hpp"
#include "util/json.hpp"

namespace dmp::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::size_t count_lines(const std::string& text) {
  std::size_t n = 0;
  for (char c : text) {
    if (c == '\n') ++n;
  }
  return n;
}

TEST(Counter, IncrementsAndDefaultsToZero) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetValueAndSampler) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  EXPECT_FALSE(g.has_sampler());

  double backing = 7.0;
  g.set_sampler([&backing] { return backing; });
  EXPECT_TRUE(g.has_sampler());
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  backing = 9.0;
  EXPECT_DOUBLE_EQ(g.value(), 9.0);

  // freeze() pins the current value and detaches the sampler.
  g.freeze();
  EXPECT_FALSE(g.has_sampler());
  backing = 100.0;
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
}

TEST(Histogram, ExactMomentsApproximateQuantiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);

  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i) * 1e-3);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 5.05, 1e-12);
  EXPECT_NEAR(h.mean(), 0.0505, 1e-12);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 0.1);

  // Log2 buckets: quantiles are exact to a factor of sqrt(2).
  EXPECT_NEAR(h.quantile(0.5), 0.050, 0.5 * 0.050);
  EXPECT_NEAR(h.quantile(0.99), 0.100, 0.5 * 0.100);
  EXPECT_LE(h.quantile(0.0), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(1.0));
  EXPECT_LE(h.quantile(1.0), h.max());
  EXPECT_GE(h.quantile(0.0), h.min());
}

TEST(Histogram, UnderflowAndHugeValuesLandInEdgeBuckets) {
  Histogram h;
  h.observe(1e-12);  // below `lowest` -> bucket 0
  h.observe(1e30);   // beyond the top bucket -> clamped to the last
  EXPECT_EQ(h.buckets().front(), 1u);
  EXPECT_EQ(h.buckets().back(), 1u);
  EXPECT_EQ(h.count(), 2u);
}

TEST(MetricsRegistry, GetOrCreateAndFind) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("x"), nullptr);
  reg.counter("x").inc(3);
  reg.counter("x").inc(4);  // same counter, not a new one
  ASSERT_NE(reg.find_counter("x"), nullptr);
  EXPECT_EQ(reg.find_counter("x")->value(), 7u);
  EXPECT_EQ(reg.counters().size(), 1u);

  reg.gauge("g").set(1.25);
  EXPECT_EQ(reg.find_gauge("missing"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_gauge("g")->value(), 1.25);

  reg.histogram("h").observe(2.0);
  ASSERT_NE(reg.find_histogram("h"), nullptr);
  EXPECT_EQ(reg.find_histogram("h")->count(), 1u);
}

TEST(MetricsRegistry, StableAddressesAcrossInsertions) {
  MetricsRegistry reg;
  Counter* first = &reg.counter("a");
  for (int i = 0; i < 100; ++i) {
    reg.counter(std::string("c").append(std::to_string(i)));
  }
  EXPECT_EQ(first, &reg.counter("a"));  // node-based storage: no relocation
}

TEST(MetricsRegistry, FreezeGaugesDetachesAllSamplers) {
  MetricsRegistry reg;
  double v = 5.0;
  reg.gauge("a").set_sampler([&v] { return v; });
  reg.gauge("b").set(2.0);
  std::uint64_t total = 7;
  reg.counter("c").set_sampler([&total] { return total; });
  EXPECT_EQ(reg.find_counter("c")->value(), 7u);
  reg.freeze_samplers();
  v = 99.0;
  total = 99;
  EXPECT_DOUBLE_EQ(reg.find_gauge("a")->value(), 5.0);
  EXPECT_FALSE(reg.find_gauge("a")->has_sampler());
  EXPECT_DOUBLE_EQ(reg.find_gauge("b")->value(), 2.0);
  EXPECT_EQ(reg.find_counter("c")->value(), 7u);
}

TEST(EventLog, SeverityFilterDropsBelowThreshold) {
  EventLog log(0, Severity::kInfo);
  EXPECT_FALSE(log.enabled(Severity::kDebug));
  EXPECT_TRUE(log.enabled(Severity::kWarn));
  log.record(1.0, Severity::kDebug, "pull", {});
  log.record(2.0, Severity::kInfo, "accept", {});
  log.record(3.0, Severity::kWarn, "drop", {});
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.total_recorded(), 2u);
  EXPECT_EQ(log.events().front().type, "accept");
}

TEST(EventLog, RingBufferTruncatesOldestAndCountsEvictions) {
  EventLog log(3);
  for (int i = 0; i < 10; ++i) {
    log.record(static_cast<double>(i), Severity::kInfo, "e",
               {EventField::num("i", i)});
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.ring_capacity(), 3u);
  EXPECT_EQ(log.total_recorded(), 10u);
  EXPECT_EQ(log.overwritten(), 7u);
  // The retained window is the newest three events, in order.
  EXPECT_DOUBLE_EQ(log.events()[0].time_s, 7.0);
  EXPECT_DOUBLE_EQ(log.events()[2].time_s, 9.0);
}

TEST(EventLog, JsonlShapeAndEscaping) {
  EventLog log;
  log.record(1.5, Severity::kWarn, "drop",
             {EventField::num("flow", std::int64_t{4}),
              EventField::num("queue", 12.0),
              EventField::text("note", "a \"quoted\"\nline")});
  std::ostringstream out;
  log.to_jsonl(out);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"sev\":\"warn\""), std::string::npos);
  EXPECT_NE(line.find("\"type\":\"drop\""), std::string::npos);
  EXPECT_NE(line.find("\"flow\":4"), std::string::npos);
  EXPECT_NE(line.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(count_lines(line), 1u);
}

TEST(EventLog, NonFiniteNumberSerializesAsNull) {
  EventLog log;
  log.record(2.0, Severity::kInfo, "gauge",
             {EventField::num("v", static_cast<double>(INFINITY))});
  std::ostringstream out;
  log.to_jsonl(out);
  const JsonValue line = parse_json(out.str());
  ASSERT_NE(line.find("v"), nullptr);
  EXPECT_TRUE(line.find("v")->is_null());
}

TEST(Probe, SamplesAtFixedSimulatedInterval) {
  Scheduler sched;
  MetricsRegistry reg;
  reg.gauge("depth").set_sampler([&sched] {
    return sched.now().to_seconds() * 10.0;  // deterministic ramp
  });
  const std::string path = "probe_unit_test.csv";
  Probe probe(sched, reg, {"depth"}, path, SimTime::seconds(1));
  probe.start(SimTime::seconds(5));
  sched.run_until(SimTime::seconds(10));
  // t = 0,1,2,3,4,5 inclusive.
  EXPECT_EQ(probe.samples(), 6u);

  const std::string text = slurp(path);
  EXPECT_EQ(text.substr(0, text.find('\n')), "time_s,depth");
  EXPECT_EQ(count_lines(text), 7u);  // header + 6 rows
  EXPECT_NE(text.find("\n2,20"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Probe, RejectsNonPositiveInterval) {
  Scheduler sched;
  MetricsRegistry reg;
  EXPECT_THROW(Probe(sched, reg, {}, "probe_bad_interval.csv",
                     SimTime::zero()),
               std::invalid_argument);
  std::remove("probe_bad_interval.csv");
}

TEST(Probe, StopCancelsFutureSamples) {
  Scheduler sched;
  MetricsRegistry reg;
  reg.gauge("g").set(1.0);
  const std::string path = "probe_stop_test.csv";
  Probe probe(sched, reg, {"g"}, path, SimTime::seconds(1));
  probe.start();
  sched.run_until(SimTime::seconds(2));
  probe.stop();
  sched.run_until(SimTime::seconds(10));
  EXPECT_EQ(probe.samples(), 3u);  // t = 0, 1, 2
  std::remove(path.c_str());
}

TEST(RunReport, JsonContainsMetaSeriesAndMetrics) {
  MetricsRegistry reg;
  reg.counter("tcp.path0.timeouts").inc(5);
  reg.gauge("tcp.path0.cwnd").set(17.0);
  reg.histogram("client.delay_s").observe(0.25);

  RunReport report;
  report.set_text("scheme", "dmp");
  report.set_scalar("mu_pps", 50.0);
  report.set_scalar("packets_generated", std::int64_t{1000});
  report.set_series("path_split", {0.75, 0.25});

  const std::string json = report.to_json(&reg);
  EXPECT_NE(json.find("\"scheme\":\"dmp\""), std::string::npos);
  EXPECT_NE(json.find("\"packets_generated\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"path_split\":[0.75,0.25]"), std::string::npos);
  EXPECT_NE(json.find("\"tcp.path0.timeouts\":5"), std::string::npos);
  EXPECT_NE(json.find("\"tcp.path0.cwnd\":17"), std::string::npos);
  EXPECT_NE(json.find("\"client.delay_s\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  // Null registry: meta/series only, still valid shape.
  const std::string bare = report.to_json(nullptr);
  EXPECT_NE(bare.find("\"meta\""), std::string::npos);
  EXPECT_EQ(bare.find("tcp.path0"), std::string::npos);
}

TEST(RunReport, WriteRoundTripsThroughDisk) {
  RunReport report;
  report.set_scalar("seed", std::int64_t{7});
  const std::string path = "report_unit_test.json";
  report.write(path, nullptr);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"seed\":7"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dmp::obs
