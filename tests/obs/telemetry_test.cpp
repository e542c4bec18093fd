// Streaming-telemetry unit tests: quantile-sketch accuracy and merge
// algebra, windowed time-series semantics, the observability hub's
// telemetry sink, and the DES self-profiler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/hub.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry/sketch.hpp"
#include "obs/telemetry/time_series.hpp"
#include "sim/profiler.hpp"
#include "sim/scheduler.hpp"

namespace {

using dmp::EventCategory;
using dmp::SchedProfile;
using dmp::Scheduler;
using dmp::SimTime;
using dmp::obs::Hub;
using dmp::obs::ObsConfig;
using dmp::obs::QuantileSketch;
using dmp::obs::TelemetryConfig;
using dmp::obs::TimeSeries;
using dmp::obs::TimeSeriesChannel;
using dmp::obs::Window;

// Exact order statistics bracketing rank q*(n-1); the sketch's bucketed
// answer must be within relative error alpha of that bracket.
void expect_quantile_within(const QuantileSketch& sketch,
                            std::vector<double> sorted, double q,
                            double alpha) {
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const double lo = sorted[static_cast<std::size_t>(std::floor(pos))];
  const double hi = sorted[static_cast<std::size_t>(std::ceil(pos))];
  const double est = sketch.quantile(q);
  // Guarantee: est is within alpha (plus FP slack) of SOME value in
  // [lo, hi] — i.e. est/(1+a) <= hi and est*(1+a) >= lo, sign-adjusted.
  const double a = alpha * 1.001 + 1e-12;
  const double lo_bound = lo >= 0.0 ? lo * (1.0 - a) : lo * (1.0 + a);
  const double hi_bound = hi >= 0.0 ? hi * (1.0 + a) : hi * (1.0 - a);
  EXPECT_GE(est, lo_bound - 1e-12) << "q=" << q;
  EXPECT_LE(est, hi_bound + 1e-12) << "q=" << q;
}

TEST(QuantileSketch, ExactModeMatchesInterpolatedQuantiles) {
  QuantileSketch sketch;  // threshold 128 — these 11 samples stay exact
  std::vector<double> values{5, 1, 4, 2, 8, 9, 3, 7, 6, 0, 10};
  for (double v : values) sketch.add(v);
  EXPECT_TRUE(sketch.exact_mode());
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.25), 2.5);
  EXPECT_EQ(sketch.count(), 11u);
  EXPECT_DOUBLE_EQ(sketch.min(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 10.0);
}

TEST(QuantileSketch, RelativeErrorOnAdversarialDistributions) {
  const double alpha = 0.01;
  std::mt19937_64 rng(7);

  // Distributions chosen to stress the log buckets: many decades of scale,
  // heavy tails, duplicated point masses, negatives and exact zeros.
  const auto log_uniform = [&rng] {
    std::uniform_real_distribution<double> u(-9.0, 9.0);
    return [&rng, u]() mutable { return std::pow(10.0, u(rng)); };
  };
  const auto pareto = [&rng] {
    std::uniform_real_distribution<double> u(1e-9, 1.0);
    return [&rng, u]() mutable { return std::pow(u(rng), -1.0 / 1.2); };
  };
  const auto point_masses = [&rng] {
    std::uniform_int_distribution<int> pick(0, 2);
    return [&rng, pick]() mutable {
      return std::vector<double>{1e-6, 1.0, 1e6}[pick(rng)];
    };
  };
  const auto mixed_sign = [&rng] {
    std::uniform_real_distribution<double> u(-4.0, 4.0);
    std::uniform_int_distribution<int> z(0, 9);
    return [&rng, u, z]() mutable {
      if (z(rng) == 0) return 0.0;
      const double mag = std::pow(10.0, u(rng));
      return z(rng) % 2 == 0 ? mag : -mag;
    };
  };

  const std::vector<std::function<double()>> gens{
      log_uniform(), pareto(), point_masses(), mixed_sign()};
  for (auto& gen : gens) {
    QuantileSketch sketch(alpha);
    std::vector<double> values;
    for (int i = 0; i < 5000; ++i) {
      const double v = gen();
      values.push_back(v);
      sketch.add(v);
    }
    EXPECT_FALSE(sketch.exact_mode());
    for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
      expect_quantile_within(sketch, values, q, alpha);
    }
  }
}

TEST(QuantileSketch, MergeEqualsBulkAccumulation) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(0.001, 1000.0);
  QuantileSketch bulk;
  std::vector<QuantileSketch> parts;
  for (int p = 0; p < 4; ++p) parts.emplace_back();
  for (int i = 0; i < 2000; ++i) {
    const double v = u(rng);
    bulk.add(v);
    parts[static_cast<std::size_t>(i % 4)].add(v);
  }
  QuantileSketch merged;
  for (const auto& part : parts) merged.merge(part);
  EXPECT_EQ(merged.count(), bulk.count());
  EXPECT_DOUBLE_EQ(merged.quantile(0.5), bulk.quantile(0.5));
  EXPECT_DOUBLE_EQ(merged.quantile(0.99), bulk.quantile(0.99));
  EXPECT_DOUBLE_EQ(merged.min(), bulk.min());
  EXPECT_DOUBLE_EQ(merged.max(), bulk.max());
}

TEST(QuantileSketch, MergeAssociativeAndCommutative) {
  // Dyadic values make every partial FP sum exact, so the merged states
  // are byte-identical in any association/order — the strongest form of
  // the algebraic property (for general doubles the bucket counts are
  // still order-free; only the running sum picks up FP noise).
  const auto make = [](int lo, int hi) {
    QuantileSketch s(0.02, 4);  // tiny threshold: force bucketed mode
    for (int i = lo; i < hi; ++i) {
      s.add(static_cast<double>(i) / 1024.0);
    }
    return s;
  };
  const QuantileSketch a = make(1, 300);
  const QuantileSketch b = make(300, 700);
  const QuantileSketch c = make(700, 1200);

  QuantileSketch ab_c(0.02, 4);
  ab_c.merge(a);
  ab_c.merge(b);
  ab_c.merge(c);
  QuantileSketch a_bc = a;  // copy, then fold (b merged c) in
  QuantileSketch bc = b;
  bc.merge(c);
  a_bc.merge(bc);
  QuantileSketch cba(0.02, 4);
  cba.merge(c);
  cba.merge(b);
  cba.merge(a);

  EXPECT_EQ(ab_c.to_json(), a_bc.to_json());
  EXPECT_EQ(ab_c.to_json(), cba.to_json());
}

TEST(QuantileSketch, ExactMergeStaysExactUnderThreshold) {
  QuantileSketch a(0.01, 16), b(0.01, 16);
  for (int i = 0; i < 6; ++i) a.add(i);
  for (int i = 6; i < 12; ++i) b.add(i);
  a.merge(b);
  EXPECT_TRUE(a.exact_mode());
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 11.0);
  b.merge(a);  // 6 + 12 > 16 — must spill
  EXPECT_FALSE(b.exact_mode());
}

TEST(QuantileSketch, JsonRoundTrip) {
  // Exact mode: values inserted in sorted order so the re-accumulated sum
  // is bit-identical and the round trip reproduces the bytes.
  QuantileSketch exact(0.01, 32);
  for (double v : {-3.0, -0.5, 0.0, 0.25, 1.5, 9.75}) exact.add(v);
  const std::string exact_json = exact.to_json();
  EXPECT_EQ(QuantileSketch::from_json(exact_json).to_json(), exact_json);

  // Bucketed mode with negatives and zeros.
  QuantileSketch bucketed(0.02, 4);
  for (int i = -50; i <= 50; ++i) bucketed.add(static_cast<double>(i));
  EXPECT_FALSE(bucketed.exact_mode());
  const std::string json = bucketed.to_json();
  const QuantileSketch back = QuantileSketch::from_json(json);
  EXPECT_EQ(back.to_json(), json);
  EXPECT_EQ(back.count(), bucketed.count());
  EXPECT_DOUBLE_EQ(back.quantile(0.5), bucketed.quantile(0.5));
  EXPECT_DOUBLE_EQ(back.quantile(0.05), bucketed.quantile(0.05));

  // Extra keys (the hub injects "name") are ignored.
  const std::string named = "{\"name\":\"client.delay_s\"," + json.substr(1);
  EXPECT_EQ(QuantileSketch::from_json(named).count(), bucketed.count());
}

TEST(QuantileSketch, EmptySketchJsonHasNullExtrema) {
  const QuantileSketch empty;
  const std::string json = empty.to_json();
  EXPECT_NE(json.find("\"min\":null"), std::string::npos);
  EXPECT_NE(json.find("\"max\":null"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(QuantileSketch, Validation) {
  QuantileSketch sketch;
  EXPECT_THROW(sketch.add(std::nan("")), std::invalid_argument);
  EXPECT_THROW(sketch.add(INFINITY), std::invalid_argument);
  EXPECT_THROW(sketch.quantile(0.5), std::logic_error);
  QuantileSketch other(0.05);
  other.add(1.0);
  EXPECT_THROW(sketch.merge(other), std::invalid_argument);
  EXPECT_THROW(QuantileSketch(0.0), std::invalid_argument);
  EXPECT_THROW(QuantileSketch::from_json("{\"bogus\":1}"), std::runtime_error);
}

TEST(TimeSeries, WindowFoldingSemantics) {
  TimeSeries series(1.0);
  TimeSeriesChannel* ch = series.channel("cwnd");
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(series.channel("cwnd"), ch);  // get-or-create is idempotent

  ch->add(SimTime::seconds(0.1), 2.0);
  ch->add(SimTime::seconds(0.9), 6.0);
  ch->add(SimTime::seconds(1.5), 4.0);
  // Window 2 is empty; next sample lands in window 3.
  ch->add(SimTime::seconds(3.25), 8.0);
  const auto& windows = ch->finish();

  ASSERT_EQ(windows.size(), 3u);  // empty window 2 absent, not zero-filled
  EXPECT_EQ(windows[0].index, 0);
  EXPECT_EQ(windows[0].count, 2u);
  EXPECT_DOUBLE_EQ(windows[0].sum, 8.0);
  EXPECT_DOUBLE_EQ(windows[0].mean(), 4.0);
  EXPECT_DOUBLE_EQ(windows[0].min, 2.0);
  EXPECT_DOUBLE_EQ(windows[0].max, 6.0);
  EXPECT_DOUBLE_EQ(windows[0].last, 6.0);
  EXPECT_EQ(windows[1].index, 1);
  EXPECT_EQ(windows[2].index, 3);
  EXPECT_EQ(ch->total_samples(), 4u);
}

TEST(TimeSeries, BumpCountsEventsPerWindow) {
  TimeSeries series(0.5);
  TimeSeriesChannel* drops = series.channel("drops");
  for (int i = 0; i < 7; ++i) drops->bump(SimTime::millis(100 * i));
  const auto& windows = drops->finish();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].sum, 5.0);  // t = 0.0 .. 0.4
  EXPECT_DOUBLE_EQ(windows[1].sum, 2.0);  // t = 0.5, 0.6
}

TEST(TimeSeries, CsvNeverContainsNonFiniteAndIsSorted) {
  TimeSeries series(1.0);
  series.channel("zzz")->add(SimTime::seconds(0.0), 1.0);
  series.channel("aaa")->add(SimTime::seconds(5.0), 2.0);
  series.channel("empty");  // no samples: contributes no rows
  const std::string path = ::testing::TempDir() + "telemetry_test.csv";
  ASSERT_TRUE(series.write_csv(path));

  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "window_start_s,channel,count,sum,mean,min,max,last");
  EXPECT_EQ(lines[1], "5,aaa,1,2,2,2,2,2");
  EXPECT_EQ(lines[2], "0,zzz,1,1,1,1,1,1");
  for (const auto& l : lines) {
    EXPECT_EQ(l.find("inf"), std::string::npos);
    EXPECT_EQ(l.find("nan"), std::string::npos);
  }
}

// A telemetry-only hub writing its artifacts under `prefix`.
Hub telemetry_hub(const std::string& prefix) {
  ObsConfig config;
  config.output_dir = ::testing::TempDir();
  config.prefix = prefix;
  TelemetryConfig telemetry;
  telemetry.enabled = true;
  telemetry.write_artifacts = true;
  return Hub(config, telemetry);
}

TEST(ObsHub, WritesNamedSketchArtifacts) {
  Hub hub = telemetry_hub("hub_test");
  hub.channel("x")->add(SimTime::seconds(0.5), 3.0);
  QuantileSketch* sketch = hub.sketch("client.delay_s");
  ASSERT_NE(sketch, nullptr);
  EXPECT_EQ(hub.sketch("client.delay_s"), sketch);
  sketch->add(0.25);
  hub.write_artifacts();
  EXPECT_EQ(hub.artifact_write_failures(), 0);

  std::ifstream jsonl(hub.config().sketches_path());
  std::string line;
  ASSERT_TRUE(std::getline(jsonl, line));
  EXPECT_NE(line.find("\"name\":\"client.delay_s\""), std::string::npos);
  const auto back = QuantileSketch::from_json(line);
  EXPECT_EQ(back.count(), 1u);

  EXPECT_EQ(hub.sketches().count("client.delay_s"), 1u);
  EXPECT_EQ(hub.sketches().count("missing"), 0u);
  // The other sinks stay off: their lookups are null.
  EXPECT_EQ(hub.counter("c"), nullptr);
  EXPECT_EQ(hub.gauge("g"), nullptr);
  EXPECT_EQ(hub.histogram("h"), nullptr);
  EXPECT_EQ(hub.events(), nullptr);
  EXPECT_EQ(hub.flight(), nullptr);
  EXPECT_EQ(hub.metrics(), nullptr);
}

TEST(ObsHub, SketchArtifactReadsBackByName) {
  Hub hub = telemetry_hub("hub_names_test");
  hub.sketch("a\"b\\c")->add(0.5);
  hub.sketch("plain")->add(1.5);
  hub.write_artifacts();
  EXPECT_EQ(hub.artifact_write_failures(), 0);

  std::ifstream jsonl(hub.config().sketches_path());
  const auto sketches = dmp::obs::read_sketches_jsonl(jsonl);
  ASSERT_EQ(sketches.size(), 2u);
  EXPECT_EQ(sketches[0].name, "a\"b\\c");
  EXPECT_EQ(sketches[0].sketch.count(), 1u);
  EXPECT_EQ(sketches[1].name, "plain");
}

TEST(ObsHub, LookupsAreNullWithTelemetryOff) {
  ObsConfig config;
  config.enabled = true;
  config.output_dir = ::testing::TempDir();
  Hub hub(config);
  EXPECT_NE(hub.counter("c"), nullptr);
  EXPECT_EQ(hub.channel("x"), nullptr);
  EXPECT_EQ(hub.sketch("s"), nullptr);
  EXPECT_TRUE(hub.sketches().empty());
}

TEST(SketchJsonl, ReaderNamesTheLineOfABadBucketPair) {
  QuantileSketch good;
  good.add(1.0);
  std::istringstream in(
      "{\"name\":\"ok\"," + good.to_json().substr(1) + "\n" +
      "{\"name\":\"bad\",\"type\":\"ddsketch\",\"alpha\":0.01,"
      "\"count\":1,\"sum\":1,\"min\":1,\"max\":1,\"zero\":0,"
      "\"neg\":[],\"pos\":[[1]]}\n");
  try {
    dmp::obs::read_sketches_jsonl(in);
    ADD_FAILURE() << "accepted a one-element bucket pair";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(Profiler, CategoryNamesCoverEveryCategory) {
  for (std::size_t c = 0; c < dmp::kNumEventCategories; ++c) {
    const auto name =
        dmp::event_category_name(static_cast<EventCategory>(c));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "invalid");
  }
  EXPECT_EQ(dmp::event_category_name(EventCategory::kCount), "invalid");
}

TEST(Profiler, SchedulerAttributesExecutedEventsByCategory) {
  Scheduler sched;
  SchedProfile profile;
  sched.set_profiler(&profile);
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    sched.post_after(SimTime::millis(i), [&fired] { ++fired; },
                     EventCategory::kLinkTx);
  }
  sched.post_after(SimTime::millis(9), [&fired] { ++fired; },
                   EventCategory::kTcpTimer);
  sched.post_after(SimTime::millis(10), [&fired] { ++fired; });  // kOther
  sched.run();
  EXPECT_EQ(fired, 7);
  EXPECT_EQ(profile[EventCategory::kLinkTx].executed, 5u);
  EXPECT_EQ(profile[EventCategory::kTcpTimer].executed, 1u);
  EXPECT_EQ(profile[EventCategory::kOther].executed, 1u);
  EXPECT_EQ(profile.total_executed(), 7u);
  EXPECT_EQ(profile.total_wall_ns(), 0u);  // timing was not enabled
}

TEST(Profiler, WallTimingAccumulatesWhenEnabled) {
  Scheduler sched;
  SchedProfile profile;
  sched.set_profiler(&profile, /*time_events=*/true);
  sched.post_after(SimTime::millis(1), [] {
    volatile double x = 0.0;
    for (int i = 0; i < 10000; ++i) x = x + static_cast<double>(i);
  }, EventCategory::kSource);
  sched.run();
  EXPECT_EQ(profile[EventCategory::kSource].executed, 1u);
  EXPECT_GT(profile[EventCategory::kSource].wall_ns, 0u);
}

// Non-finite values (a stall ratio dividing by zero, an untouched
// accumulator's +/-inf sentinel) must render as JSON null, never as the
// bare "inf"/"nan" tokens std::to_chars would produce.
TEST(RunReport, NonFiniteValuesSerializeAsNull) {
  dmp::obs::RunReport report;
  report.set_scalar("stall_ratio", std::numeric_limits<double>::infinity());
  report.set_scalar("skew", std::nan(""));
  report.set_scalar("good", 1.5);
  report.set_series("mixed",
                    {1.0, -std::numeric_limits<double>::infinity(), 2.0});
  const std::string json = report.to_json(nullptr);
  EXPECT_NE(json.find("\"stall_ratio\":null"), std::string::npos);
  EXPECT_NE(json.find("\"skew\":null"), std::string::npos);
  EXPECT_NE(json.find("[1,null,2]"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(RunReport, NonFiniteGaugeSerializesAsNull) {
  dmp::obs::MetricsRegistry registry;
  registry.gauge("srtt_s").set(std::numeric_limits<double>::infinity());
  registry.histogram("empty.delay_s");  // untouched: must not emit inf
  dmp::obs::RunReport report;
  const std::string json = report.to_json(&registry);
  EXPECT_NE(json.find("\"srtt_s\":null"), std::string::npos);
  EXPECT_NE(json.find("\"empty.delay_s\""), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

}  // namespace
